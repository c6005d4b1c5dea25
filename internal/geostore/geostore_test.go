package geostore

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"eunomia/internal/clock"
	"eunomia/internal/fabric"
	"eunomia/internal/hlc"
	"eunomia/internal/types"
)

func fastStore(opts ...func(*Config)) *Store {
	cfg := Config{DCs: 3, Partitions: 4, Delay: fastDelay()}
	for _, o := range opts {
		o(&cfg)
	}
	return NewStore(cfg)
}

func TestReadYourWritesLocal(t *testing.T) {
	s := fastStore()
	defer s.Close()
	c := s.NewClient(0)
	if err := c.Update("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, err := c.Read("k")
	if err != nil || string(v) != "v1" {
		t.Fatalf("read-your-writes failed: %q, %v", v, err)
	}
}

func TestMonotonicSession(t *testing.T) {
	s := fastStore()
	defer s.Close()
	c := s.NewClient(0)
	for i := 0; i < 20; i++ {
		c.Update("k", []byte(fmt.Sprintf("v%d", i)))
		v, _ := c.Read("k")
		if string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("session went backwards at %d: %q", i, v)
		}
	}
}

// TestCausalChainThreeDCs exercises a three-hop causal chain across all
// datacenters: dc0 writes a, dc1 reads a writes b, dc2 reads b writes c;
// dc0 must never see c without b, nor b without a.
func TestCausalChainThreeDCs(t *testing.T) {
	s := fastStore()
	defer s.Close()

	c0, c1, c2 := s.NewClient(0), s.NewClient(1), s.NewClient(2)
	if err := c0.Update("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { v, _ := c1.Read("a"); return string(v) == "1" })
	if err := c1.Update("b", []byte("2")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { v, _ := c2.Read("b"); return string(v) == "2" })
	if err := c2.Update("c", []byte("3")); err != nil {
		t.Fatal(err)
	}

	probe := s.NewClient(0)
	waitFor(t, 3*time.Second, func() bool {
		cv, _ := probe.Read("c")
		if string(cv) != "3" {
			return false
		}
		bv, _ := probe.Read("b")
		av, _ := probe.Read("a")
		if string(bv) != "2" || string(av) != "1" {
			t.Fatalf("causal chain broken at dc0: a=%q b=%q c=%q", av, bv, cv)
		}
		return true
	})
}

// TestCausalOrderUnderConcurrentLoad hammers the store from every DC while
// a dedicated checker continuously validates the litmus invariant on a
// pair of keys written causally.
func TestCausalOrderUnderConcurrentLoad(t *testing.T) {
	s := fastStore()
	defer s.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Background load on other keys — throttled so the protocol's
	// service goroutines still get CPU on single-core hosts.
	for dc := 0; dc < 3; dc++ {
		wg.Add(1)
		go func(dc int) {
			defer wg.Done()
			c := s.NewClient(types.DCID(dc))
			r := rand.New(rand.NewSource(int64(dc)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := types.Key(fmt.Sprintf("noise%d", r.Intn(100)))
				if r.Intn(2) == 0 {
					c.Update(key, []byte{byte(i)})
				} else {
					c.Read(key)
				}
				time.Sleep(500 * time.Microsecond)
			}
		}(dc)
	}

	// Causal pairs: writer at dc0 writes data then flag (flag causally
	// after data); checker at dc1 must never see flag without data.
	writer := s.NewClient(0)
	checker := s.NewClient(1)
	for round := 0; round < 30; round++ {
		data := types.Key(fmt.Sprintf("data%d", round))
		flag := types.Key(fmt.Sprintf("flag%d", round))
		if err := writer.Update(data, []byte("payload")); err != nil {
			t.Fatal(err)
		}
		if err := writer.Update(flag, []byte("set")); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 5*time.Second, func() bool {
			f, _ := checker.Read(flag)
			if string(f) != "set" {
				return false
			}
			d, _ := checker.Read(data)
			if string(d) != "payload" {
				t.Fatalf("round %d: flag visible without data", round)
			}
			return true
		})
	}
	close(stop)
	wg.Wait()
}

func TestConvergenceAfterLoad(t *testing.T) {
	s := fastStore()
	defer s.Close()
	var wg sync.WaitGroup
	for dc := 0; dc < 3; dc++ {
		wg.Add(1)
		go func(dc int) {
			defer wg.Done()
			c := s.NewClient(types.DCID(dc))
			r := rand.New(rand.NewSource(int64(dc) * 101))
			for i := 0; i < 300; i++ {
				key := types.Key(fmt.Sprintf("key%d", r.Intn(50)))
				c.Update(key, []byte(fmt.Sprintf("dc%d-%d", dc, i)))
				if i%16 == 0 {
					// Give the pipeline goroutines CPU on single-core
					// hosts (and under the race detector's slowdown).
					time.Sleep(time.Millisecond)
				}
			}
		}(dc)
	}
	wg.Wait()
	if err := s.WaitQuiescent(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	// One more settle round for receiver release.
	time.Sleep(50 * time.Millisecond)
	if err := s.Convergent(); err != nil {
		t.Fatal(err)
	}
}

func TestFaultTolerantEunomiaFailover(t *testing.T) {
	s := fastStore(func(c *Config) {
		c.Replicas = 3
		c.StableInterval = time.Millisecond
	})
	defer s.Close()

	c0 := s.NewClient(0)
	c0.Update("before", []byte("x"))
	c1 := s.NewClient(1)
	waitFor(t, 2*time.Second, func() bool { v, _ := c1.Read("before"); return v != nil })

	// Crash dc0's Eunomia leader; replication must continue via the
	// surviving replicas.
	s.CrashEunomiaReplica(0, 0)
	c0.Update("after", []byte("y"))
	waitFor(t, 3*time.Second, func() bool { v, _ := c1.Read("after"); return v != nil })
}

func TestSingleReplicaCrashHaltsPropagationButNotLocal(t *testing.T) {
	s := fastStore()
	defer s.Close()
	s.CrashEunomiaReplica(0, 0) // the only replica of dc0
	c0 := s.NewClient(0)
	if err := c0.Update("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Local reads still work (updates proceed without synchronous
	// coordination — the crash only stops propagation).
	v, _ := c0.Read("k")
	if string(v) != "v" {
		t.Fatal("local update lost after Eunomia crash")
	}
	time.Sleep(100 * time.Millisecond)
	c1 := s.NewClient(1)
	if v, _ := c1.Read("k"); v != nil {
		t.Fatal("update propagated despite the site's Eunomia being down")
	}
}

// TestLostReplicaAcksNeverStallStream drops every acknowledgement dc0's
// Eunomia replica sends its partitions. Flushes never wait for one: the
// writes still become visible at dc1, and closing the store does not sit
// out an acknowledgement timeout.
func TestLostReplicaAcksNeverStallStream(t *testing.T) {
	s := fastStore(func(c *Config) { c.DCs, c.Partitions = 2, 2 })
	for p := 0; p < 2; p++ {
		s.Network().SetDrop(fabric.EunomiaAddr(0, 0), fabric.PartitionAddr(0, types.PartitionID(p)), true)
	}
	c0, c1 := s.NewClient(0), s.NewClient(1)
	for i := 0; i < 20; i++ {
		if err := c0.Update(types.Key(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool {
		for i := 0; i < 20; i++ {
			if v, _ := c1.Read(types.Key(fmt.Sprintf("k%d", i))); v == nil {
				return false
			}
		}
		return true
	})
	start := time.Now()
	s.Close()
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Close took %v waiting on lost acknowledgements", d)
	}
}

func TestScalarMetadataStillCausal(t *testing.T) {
	s := fastStore(func(c *Config) { c.ScalarMeta = true })
	defer s.Close()
	alice, bob, carol := s.NewClient(0), s.NewClient(1), s.NewClient(2)
	alice.Update("post", []byte("hello"))
	waitFor(t, 2*time.Second, func() bool { v, _ := bob.Read("post"); return v != nil })
	bob.Update("reply", []byte("hi"))
	waitFor(t, 5*time.Second, func() bool {
		r, _ := carol.Read("reply")
		if r == nil {
			return false
		}
		p, _ := carol.Read("post")
		if p == nil {
			t.Fatal("scalar mode causality violated")
		}
		return true
	})
}

func TestNoSeparationMode(t *testing.T) {
	s := fastStore(func(c *Config) { c.NoSeparation = true })
	defer s.Close()
	c0 := s.NewClient(0)
	c0.Update("k", []byte("inline"))
	c1 := s.NewClient(1)
	waitFor(t, 2*time.Second, func() bool {
		v, _ := c1.Read("k")
		return string(v) == "inline"
	})
	// No payload buffers should be in use at all.
	for dc := types.DCID(0); dc < 3; dc++ {
		for p := types.PartitionID(0); p < 4; p++ {
			if s.Partition(dc, p).PendingPayloads() != 0 {
				t.Fatal("payload buffer used in combined mode")
			}
		}
	}
}

// TestClockSkewTolerance runs the full store with partition clocks skewed
// by up to ±2 seconds and drifting; causality and convergence must be
// unaffected (§3.2's claim).
func TestClockSkewTolerance(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	s := fastStore(func(c *Config) {
		c.ClockFor = func(dc types.DCID, p types.PartitionID) hlc.PhysSource {
			offset := time.Duration(r.Intn(4000)-2000) * time.Millisecond
			drift := float64(r.Intn(200) - 100) // ±100 PPM
			return clock.NewSkewed(clock.System{}, offset, drift)
		}
	})
	defer s.Close()

	alice, bob, carol := s.NewClient(0), s.NewClient(1), s.NewClient(2)
	alice.Update("post", []byte("hello"))
	waitFor(t, 5*time.Second, func() bool { v, _ := bob.Read("post"); return v != nil })
	bob.Update("reply", []byte("hi"))
	waitFor(t, 10*time.Second, func() bool {
		rv, _ := carol.Read("reply")
		if rv == nil {
			return false
		}
		pv, _ := carol.Read("post")
		if pv == nil {
			t.Fatal("skewed clocks broke causality")
		}
		return true
	})
	if err := s.WaitQuiescent(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestStragglerDelaysOnlyItsDatacenterOrigin(t *testing.T) {
	var mu sync.Mutex
	latencies := map[types.DCID][]time.Duration{}
	s := fastStore(func(c *Config) {
		c.OnVisible = func(dest types.DCID, u *types.Update, arrived time.Time) {
			if dest != 1 {
				return
			}
			mu.Lock()
			latencies[u.Origin] = append(latencies[u.Origin], time.Since(arrived))
			mu.Unlock()
		}
	})
	defer s.Close()

	// Make partition 0 of dc2 a straggler.
	const straggle = 200 * time.Millisecond
	s.SetPartitionInterval(2, 0, straggle)

	// The writes cover two whole straggler periods, so a dc2-origin
	// update waits for the straggler's next boundary half a period on
	// average, wherever that boundary falls.
	const gap = 10 * time.Millisecond
	const writes = int(2 * straggle / gap)
	c2 := s.NewClient(2)
	c0 := s.NewClient(0)
	for i := 0; i < writes; i++ {
		c2.Update(types.Key(fmt.Sprintf("s%d", i)), []byte("x"))
		c0.Update(types.Key(fmt.Sprintf("h%d", i)), []byte("y"))
		time.Sleep(gap)
	}
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(latencies[0]) >= writes && len(latencies[2]) >= writes
	})

	mu.Lock()
	defer mu.Unlock()
	avg := func(ds []time.Duration) time.Duration {
		var sum time.Duration
		for _, d := range ds {
			sum += d
		}
		return sum / time.Duration(len(ds))
	}
	// dc2-origin updates must pay on the order of the straggle interval
	// more than dc0-origin updates; the absolute-difference bound keeps
	// the assertion robust to scheduler noise on loaded hosts.
	if a2, a0 := avg(latencies[2]), avg(latencies[0]); a2-a0 < 50*time.Millisecond {
		t.Fatalf("straggler did not delay its own site's updates: dc2 avg %v vs dc0 avg %v", a2, a0)
	}
}

func TestWaitQuiescentTimesOut(t *testing.T) {
	s := fastStore()
	defer s.Close()
	s.CrashEunomiaReplica(0, 0)
	c := s.NewClient(0)
	c.Update("k", []byte("v")) // will never drain
	if err := s.WaitQuiescent(50 * time.Millisecond); err == nil {
		t.Fatal("WaitQuiescent should time out with a dead Eunomia")
	}
}

func TestSingleDatacenterMode(t *testing.T) {
	s := NewStore(Config{DCs: 1, Partitions: 2})
	defer s.Close()
	c := s.NewClient(0)
	c.Update("k", []byte("v"))
	v, _ := c.Read("k")
	if string(v) != "v" {
		t.Fatal("single-DC store broken")
	}
	if err := s.Convergent(); err != nil {
		t.Fatal(err)
	}
}

func TestAccessors(t *testing.T) {
	s := fastStore()
	defer s.Close()
	if s.Eunomia(0) == nil || s.Receiver(1) == nil || s.Network() == nil {
		t.Fatal("accessors returned nil")
	}
	if s.Ring().Partitions() != 4 {
		t.Fatal("ring size wrong")
	}
	if len(s.NewVector()) != 3 {
		t.Fatal("NewVector size wrong")
	}
	if s.TotalUpdates() != 0 {
		t.Fatal("fresh store has updates")
	}
}
