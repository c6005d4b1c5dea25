package sequencer

import (
	"sort"
	"sync"
	"testing"
	"time"
)

func TestSingleMonotonicUnique(t *testing.T) {
	s := NewSingle()
	defer s.Stop()
	var prev uint64
	for i := 0; i < 1000; i++ {
		n, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if n != prev+1 {
			t.Fatalf("gap or repeat: %d after %d", n, prev)
		}
		prev = n
	}
	if s.Issued() != 1000 {
		t.Fatalf("Issued = %d", s.Issued())
	}
}

func TestSingleConcurrentClientsNoDuplicates(t *testing.T) {
	s := NewSingle()
	defer s.Stop()
	const workers, per = 8, 500
	results := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				n, err := s.Next()
				if err != nil {
					return
				}
				results[w] = append(results[w], n)
			}
		}(w)
	}
	wg.Wait()
	var all []uint64
	for w := range results {
		// Each client observes strictly increasing numbers: the
		// per-session monotonicity a sequencer guarantees.
		for i := 1; i < len(results[w]); i++ {
			if results[w][i] <= results[w][i-1] {
				t.Fatalf("client %d saw non-increasing numbers", w)
			}
		}
		all = append(all, results[w]...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i := range all {
		if all[i] != uint64(i+1) {
			t.Fatalf("numbers not dense: position %d holds %d", i, all[i])
		}
	}
}

func TestSingleStop(t *testing.T) {
	s := NewSingle()
	s.Stop()
	if _, err := s.Next(); err != ErrStopped {
		t.Fatalf("Next after Stop: %v", err)
	}
	s.Stop() // idempotent
}

func TestNextAsyncDelivers(t *testing.T) {
	s := NewSingle()
	defer s.Stop()
	ch := NextAsync(s)
	select {
	case n := <-ch:
		if n != 1 {
			t.Fatalf("async number = %d", n)
		}
	case <-time.After(time.Second):
		t.Fatal("async result never arrived")
	}
}

func TestNextAsyncOnStoppedService(t *testing.T) {
	s := NewSingle()
	s.Stop()
	ch := NextAsync(s)
	select {
	case _, ok := <-ch:
		if ok {
			t.Fatal("got a number from a stopped service")
		}
	case <-time.After(time.Second):
		t.Fatal("channel never closed")
	}
}

func TestChainMonotonicDense(t *testing.T) {
	c := NewChain(3)
	defer c.Stop()
	var prev uint64
	for i := 0; i < 500; i++ {
		n, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if n != prev+1 {
			t.Fatalf("chain gap: %d after %d", n, prev)
		}
		prev = n
	}
}

func TestChainConcurrent(t *testing.T) {
	c := NewChain(2)
	defer c.Stop()
	const workers, per = 4, 200
	seen := make(map[uint64]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				n, err := c.Next()
				if err != nil {
					return
				}
				mu.Lock()
				if seen[n] {
					mu.Unlock()
					t.Errorf("duplicate %d", n)
					return
				}
				seen[n] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != workers*per {
		t.Fatalf("issued %d unique numbers, want %d", len(seen), workers*per)
	}
}

func TestChainStopUnblocksClients(t *testing.T) {
	c := NewChain(3)
	done := make(chan struct{})
	go func() {
		for {
			if _, err := c.Next(); err != nil {
				close(done)
				return
			}
		}
	}()
	time.Sleep(10 * time.Millisecond)
	c.Stop()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("client hung after chain Stop")
	}
}

// TestSingleStopUnblocksClients stops a single sequencer under clients
// calling Next back to back, many times: a request that lands after the
// service drained its queue on Stop must fail, not wait for a reply that
// never comes.
func TestSingleStopUnblocksClients(t *testing.T) {
	for round := 0; round < 300; round++ {
		s := NewSingle()
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if _, err := s.Next(); err != nil {
						return
					}
				}
			}()
		}
		time.Sleep(100 * time.Microsecond)
		s.Stop()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: a client hung after Stop", round)
		}
	}
}

func TestChainMinimumOneReplica(t *testing.T) {
	c := NewChain(0) // clamps to 1
	defer c.Stop()
	if n, err := c.Next(); err != nil || n != 1 {
		t.Fatalf("Next = %d, %v", n, err)
	}
}

func TestDelayAppliedToClient(t *testing.T) {
	s := NewSingle()
	s.Delay = 20 * time.Millisecond
	defer s.Stop()
	start := time.Now()
	if _, err := s.Next(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("Delay not applied: %v", elapsed)
	}
}
