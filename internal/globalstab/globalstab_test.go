package globalstab

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"eunomia/internal/simnet"
	"eunomia/internal/types"
)

func fastDelay() simnet.DelayFunc {
	return simnet.LatencyMatrix(simnet.PaperRTTs(0.1), 0)
}

// fastCfg shrinks the stabilization intervals so tests finish quickly.
func fastCfg(mode Mode) Config {
	return Config{
		Mode:              mode,
		DCs:               3,
		Partitions:        4,
		Delay:             fastDelay(),
		HeartbeatInterval: 2 * time.Millisecond,
		StableInterval:    time.Millisecond,
	}
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

func TestReplication(t *testing.T) {
	for _, mode := range []Mode{GentleRain, Cure} {
		t.Run(mode.String(), func(t *testing.T) {
			s := NewStore(fastCfg(mode))
			defer s.Close()
			c := s.NewClient(0)
			if err := c.Update("k", []byte("v")); err != nil {
				t.Fatal(err)
			}
			for dc := types.DCID(1); dc <= 2; dc++ {
				cr := s.NewClient(dc)
				waitFor(t, 3*time.Second, func() bool {
					v, _ := cr.Read("k")
					return string(v) == "v"
				})
			}
		})
	}
}

func TestCausalLitmus(t *testing.T) {
	for _, mode := range []Mode{GentleRain, Cure} {
		t.Run(mode.String(), func(t *testing.T) {
			s := NewStore(fastCfg(mode))
			defer s.Close()

			alice := s.NewClient(0)
			if err := alice.Update("post", []byte("hello")); err != nil {
				t.Fatal(err)
			}
			bob := s.NewClient(1)
			waitFor(t, 3*time.Second, func() bool {
				v, _ := bob.Read("post")
				return string(v) == "hello"
			})
			if err := bob.Update("reply", []byte("hi")); err != nil {
				t.Fatal(err)
			}
			carol := s.NewClient(2)
			waitFor(t, 5*time.Second, func() bool {
				reply, _ := carol.Read("reply")
				if string(reply) != "hi" {
					return false
				}
				post, _ := carol.Read("post")
				if string(post) != "hello" {
					t.Fatalf("%s causality violated: reply without post", mode)
				}
				return true
			})
		})
	}
}

func TestGSTMonotonic(t *testing.T) {
	s := NewStore(fastCfg(GentleRain))
	defer s.Close()
	c := s.NewClient(0)
	var prev = s.GST(0, 0)
	for i := 0; i < 30; i++ {
		c.Update(types.Key(fmt.Sprintf("k%d", i)), []byte("x"))
		time.Sleep(2 * time.Millisecond)
		cur := s.GST(0, 0)
		if cur < prev {
			t.Fatalf("GST regressed: %v -> %v", prev, cur)
		}
		prev = cur
	}
	if prev == 0 {
		t.Fatal("GST never advanced")
	}
}

func TestGSVMonotonicEntrywise(t *testing.T) {
	s := NewStore(fastCfg(Cure))
	defer s.Close()
	c := s.NewClient(1)
	prev := s.GSV(0, 0)
	for i := 0; i < 30; i++ {
		c.Update(types.Key(fmt.Sprintf("k%d", i)), []byte("x"))
		time.Sleep(2 * time.Millisecond)
		cur := s.GSV(0, 0)
		if !cur.Dominates(prev) {
			t.Fatalf("GSV regressed: %v -> %v", prev, cur)
		}
		prev = cur
	}
}

// TestVisibilityGatedByStability: a remote update must not become visible
// before the stable cut covers it — sampled by checking that a freshly
// arrived remote update with an artificially slow heartbeat interval stays
// buffered.
func TestVisibilityGatedByStability(t *testing.T) {
	cfg := fastCfg(GentleRain)
	cfg.HeartbeatInterval = 500 * time.Millisecond // slow stabilization input
	cfg.StableInterval = time.Millisecond
	cfg.DCs = 3
	s := NewStore(cfg)
	defer s.Close()

	c := s.NewClient(0)
	if err := c.Update("gate", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// The update travels (~4-8ms on the fast matrix) but dc1 cannot
	// expose it until it also knows dc2's clock passed the timestamp —
	// which takes a heartbeat round. Shortly after arrival it must
	// still be buffered.
	time.Sleep(30 * time.Millisecond)
	c1 := s.NewClient(1)
	if v, _ := c1.Read("gate"); v != nil {
		t.Fatal("remote update visible before global stabilization allowed it")
	}
	waitFor(t, 3*time.Second, func() bool {
		v, _ := c1.Read("gate")
		return string(v) == "v"
	})
}

func TestConvergenceUnderConcurrentWrites(t *testing.T) {
	for _, mode := range []Mode{GentleRain, Cure} {
		t.Run(mode.String(), func(t *testing.T) {
			s := NewStore(fastCfg(mode))
			defer s.Close()
			for dc := types.DCID(0); dc < 3; dc++ {
				c := s.NewClient(dc)
				c.Update("contested", []byte(fmt.Sprintf("dc%d", dc)))
			}
			waitFor(t, 5*time.Second, func() bool {
				var vals [3]string
				for dc := 0; dc < 3; dc++ {
					for p := 0; p < 4; p++ {
						if v, ok := s.Partition(types.DCID(dc), types.PartitionID(p)).Get("contested"); ok {
							vals[dc] = string(v.Value)
						}
					}
				}
				return vals[0] != "" && vals[0] == vals[1] && vals[1] == vals[2]
			})
		})
	}
}

func TestPendingRemoteDrains(t *testing.T) {
	s := NewStore(fastCfg(Cure))
	defer s.Close()
	c := s.NewClient(0)
	for i := 0; i < 50; i++ {
		c.Update(types.Key(fmt.Sprintf("k%d", i)), []byte("x"))
	}
	waitFor(t, 5*time.Second, func() bool {
		for dc := types.DCID(1); dc <= 2; dc++ {
			for p := 0; p < 4; p++ {
				if s.PendingRemote(dc, types.PartitionID(p)) > 0 {
					return false
				}
			}
		}
		return true
	})
}

func TestModeString(t *testing.T) {
	if GentleRain.String() != "GentleRain" || Cure.String() != "Cure" {
		t.Fatal("Mode.String broken")
	}
}

// TestConcurrentWritersOnePartitionAllReplicate races several writers on
// one partition against its sibling heartbeats. A sibling drops an update
// at or below what it already knows from the origin, so the origin must
// ship its own updates in timestamp order and never let a heartbeat
// overtake one still buffered for shipping; otherwise updates are lost.
func TestConcurrentWritersOnePartitionAllReplicate(t *testing.T) {
	const writers, keys = 4, 500
	for _, mode := range []Mode{GentleRain, Cure} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := fastCfg(mode)
			cfg.DCs, cfg.Partitions = 2, 1
			s := NewStore(cfg)
			defer s.Close()
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					c := s.NewClient(0)
					for k := 0; k < keys; k++ {
						if err := c.Update(types.Key(fmt.Sprintf("w%d-k%d", w, k)), []byte("v")); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			dest := s.Node(1)
			deadline := time.Now().Add(10 * time.Second)
			for dest.Applied() < writers*keys && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if got := dest.Applied(); got != writers*keys {
				t.Fatalf("dc1 applied %d of %d updates", got, writers*keys)
			}
		})
	}
}
