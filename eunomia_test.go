package eunomia

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// testConfig is a fast deployment for the public-API tests.
func testConfig() Config {
	return Config{RTTScale: 0.1}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("condition not reached within %v", timeout)
}

func TestClusterQuickstart(t *testing.T) {
	c, err := NewCluster(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	alice, err := c.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.Update("greeting", []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	v, err := alice.Read("greeting")
	if err != nil || string(v) != "hello world" {
		t.Fatalf("read-your-writes: %q, %v", v, err)
	}

	bob, _ := c.Client(1)
	waitFor(t, 3*time.Second, func() bool {
		v, _ := bob.Read("greeting")
		return string(v) == "hello world"
	})
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(Config{Datacenters: -1}); err == nil {
		t.Fatal("negative config accepted")
	}
	if _, err := NewCluster(Config{Partitions: MaxPartitions + 1}); err == nil {
		t.Fatalf("%d partitions accepted beyond the %d stream ids", MaxPartitions+1, MaxPartitions)
	}
	c, err := NewCluster(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Client(99); err == nil {
		t.Fatal("out-of-range datacenter accepted")
	}
	if _, err := c.Client(-1); err == nil {
		t.Fatal("negative datacenter accepted")
	}
}

func TestClusterCausalLitmus(t *testing.T) {
	c, err := NewCluster(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	alice, _ := c.Client(0)
	bob, _ := c.Client(1)
	carol, _ := c.Client(2)

	alice.Update("post", []byte("hello"))
	waitFor(t, 3*time.Second, func() bool { v, _ := bob.Read("post"); return v != nil })
	bob.Update("reply", []byte("hi"))
	waitFor(t, 5*time.Second, func() bool {
		r, _ := carol.Read("reply")
		if r == nil {
			return false
		}
		p, _ := carol.Read("post")
		if p == nil {
			t.Fatal("public API cluster violated causality")
		}
		return true
	})
}

func TestClusterConvergence(t *testing.T) {
	c, err := NewCluster(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for dc := 0; dc < 3; dc++ {
		wg.Add(1)
		go func(dc int) {
			defer wg.Done()
			cl, _ := c.Client(dc)
			for i := 0; i < 100; i++ {
				cl.Update(fmt.Sprintf("key%d", i%20), []byte(fmt.Sprintf("dc%d-%d", dc, i)))
			}
		}(dc)
	}
	wg.Wait()
	if err := c.WaitQuiescent(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := c.Convergent(); err != nil {
		t.Fatal(err)
	}
}

func TestClusterFaultTolerance(t *testing.T) {
	cfg := testConfig()
	cfg.OrderingReplicas = 3
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a, _ := c.Client(0)
	b, _ := c.Client(1)
	c.CrashOrderingReplica(0, 0)
	a.Update("k", []byte("survives"))
	waitFor(t, 5*time.Second, func() bool {
		v, _ := b.Read("k")
		return string(v) == "survives"
	})
}

func TestClusterVisibilityCallback(t *testing.T) {
	var mu sync.Mutex
	var events int
	cfg := testConfig()
	cfg.OnRemoteVisible = func(dest, origin int, latency time.Duration) {
		mu.Lock()
		events++
		mu.Unlock()
		if latency < 0 {
			t.Error("negative visibility latency")
		}
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a, _ := c.Client(0)
	a.Update("k", []byte("v"))
	waitFor(t, 3*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return events >= 2 // visible at both remote DCs
	})
}

func TestClusterStragglerKnob(t *testing.T) {
	c, err := NewCluster(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetPartitionStraggler(0, 0, 100*time.Millisecond) // must not panic
	c.SetPartitionStraggler(0, 0, time.Millisecond)
}

func TestCustomRTTMatrix(t *testing.T) {
	cfg := Config{
		RTT: map[[2]int]time.Duration{
			{0, 1}: 4 * time.Millisecond,
			{0, 2}: 4 * time.Millisecond,
			{1, 2}: 8 * time.Millisecond,
		},
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a, _ := c.Client(0)
	b, _ := c.Client(1)
	a.Update("k", []byte("v"))
	waitFor(t, 2*time.Second, func() bool {
		v, _ := b.Read("k")
		return v != nil
	})
}

func TestScalarMetadataMode(t *testing.T) {
	cfg := testConfig()
	cfg.ScalarMetadata = true
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a, _ := c.Client(0)
	b, _ := c.Client(1)
	a.Update("k", []byte("v"))
	waitFor(t, 5*time.Second, func() bool {
		v, _ := b.Read("k")
		return v != nil
	})
}
