package receiver

import (
	"sync"
	"testing"
	"time"

	"eunomia/internal/hlc"
	"eunomia/internal/types"
	"eunomia/internal/vclock"
)

// applySink records applied updates and can refuse (missing payload).
type applySink struct {
	mu      sync.Mutex
	applied []*types.Update
	refuse  map[types.UpdateID]bool
}

func newApplySink() *applySink {
	return &applySink{refuse: map[types.UpdateID]bool{}}
}

func (a *applySink) apply(u *types.Update, _ time.Time) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.refuse[u.ID()] {
		return false
	}
	a.applied = append(a.applied, u)
	return true
}

func (a *applySink) snapshot() []*types.Update {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]*types.Update(nil), a.applied...)
}

func (a *applySink) setRefuse(id types.UpdateID, v bool) {
	a.mu.Lock()
	a.refuse[id] = v
	a.mu.Unlock()
}

// ru builds a remote update originating at origin with the given vector.
func ru(origin types.DCID, key types.Key, vts ...uint64) *types.Update {
	v := make(vclock.V, len(vts))
	for i, x := range vts {
		v[i] = hlc.Timestamp(x)
	}
	return &types.Update{
		Key:    key,
		Origin: origin,
		TS:     v[origin],
		VTS:    v,
	}
}

func newRecv(apply ApplyFunc) *Receiver {
	return New(Config{DC: 0, DCs: 3, Apply: apply})
}

func TestInOrderApplyNoDeps(t *testing.T) {
	sink := newApplySink()
	r := newRecv(sink.apply)
	defer r.Close()
	r.Enqueue(1, []*types.Update{
		ru(1, "a", 0, 10, 0),
		ru(1, "b", 0, 20, 0),
	})
	r.Flush()
	got := sink.snapshot()
	if len(got) != 2 || got[0].Key != "a" || got[1].Key != "b" {
		t.Fatalf("applied %v", got)
	}
	if r.SiteTimeEntry(1) != 20 {
		t.Fatalf("SiteTime[1] = %v, want 20", r.SiteTimeEntry(1))
	}
}

func TestDependencyGating(t *testing.T) {
	sink := newApplySink()
	r := newRecv(sink.apply)
	defer r.Close()

	// An update from dc1 depending on dc2's ts 50.
	u := ru(1, "dependent", 0, 10, 50)
	r.Enqueue(1, []*types.Update{u})
	r.Flush()
	if len(sink.snapshot()) != 0 {
		t.Fatal("update applied before its dc2 dependency")
	}

	// The dc2 update arrives; both must now apply.
	r.Enqueue(2, []*types.Update{ru(2, "dep", 0, 0, 50)})
	r.Flush()
	got := sink.snapshot()
	if len(got) != 2 {
		t.Fatalf("applied %d, want 2", len(got))
	}
	if got[0].Key != "dep" || got[1].Key != "dependent" {
		t.Fatalf("apply order wrong: %v, %v", got[0].Key, got[1].Key)
	}
}

func TestFIFOWithinOrigin(t *testing.T) {
	sink := newApplySink()
	r := newRecv(sink.apply)
	defer r.Close()
	// Head blocked on a dependency; the next update from the same
	// origin has no dependency but must still wait (per-origin FIFO).
	r.Enqueue(1, []*types.Update{
		ru(1, "blocked", 0, 10, 99),
		ru(1, "free", 0, 20, 0),
	})
	r.Flush()
	if len(sink.snapshot()) != 0 {
		t.Fatal("later update overtook a blocked head")
	}
	r.Enqueue(2, []*types.Update{ru(2, "d", 0, 0, 99)})
	r.Flush()
	if got := sink.snapshot(); len(got) != 3 {
		t.Fatalf("applied %d, want 3", len(got))
	}
}

func TestDuplicateStreamsDiscarded(t *testing.T) {
	sink := newApplySink()
	r := newRecv(sink.apply)
	defer r.Close()
	batch := []*types.Update{ru(1, "a", 0, 10, 0), ru(1, "b", 0, 20, 0)}
	r.Enqueue(1, batch)
	r.Flush()
	// A new leader reships an overlapping stream.
	r.Enqueue(1, []*types.Update{ru(1, "a", 0, 10, 0), ru(1, "b", 0, 20, 0), ru(1, "c", 0, 30, 0)})
	r.Flush()
	got := sink.snapshot()
	if len(got) != 3 {
		t.Fatalf("applied %d, want 3 (duplicates must drop)", len(got))
	}
	if r.DupDropped.Load() != 2 {
		t.Fatalf("DupDropped = %d, want 2", r.DupDropped.Load())
	}
}

func TestDuplicateAgainstQueuedTail(t *testing.T) {
	sink := newApplySink()
	r := newRecv(sink.apply)
	defer r.Close()
	// Queue a blocked update, then a duplicate arrives before it was
	// ever applied: it must be filtered against the queue tail.
	u := ru(1, "blocked", 0, 10, 99)
	r.Enqueue(1, []*types.Update{u})
	r.Enqueue(1, []*types.Update{u})
	if r.QueueLen(1) != 1 {
		t.Fatalf("queue len = %d, want 1", r.QueueLen(1))
	}
}

func TestPayloadMissingRetries(t *testing.T) {
	sink := newApplySink()
	r := newRecv(sink.apply)
	defer r.Close()
	u := ru(1, "nopayload", 0, 10, 0)
	sink.setRefuse(u.ID(), true)
	r.Enqueue(1, []*types.Update{u})
	r.Flush()
	if len(sink.snapshot()) != 0 {
		t.Fatal("applied without payload")
	}
	if r.SiteTimeEntry(1) != 0 {
		t.Fatal("SiteTime advanced past an unapplied update")
	}
	sink.setRefuse(u.ID(), false)
	r.Flush()
	if len(sink.snapshot()) != 1 {
		t.Fatal("retry did not apply")
	}
}

func TestCascadingRelease(t *testing.T) {
	sink := newApplySink()
	r := newRecv(sink.apply)
	defer r.Close()
	// dc2's update depends on dc1's; dc1's arrives second. One flush
	// must release both (the paper's FLUSH restarts from the first
	// queue after progress).
	r.Enqueue(2, []*types.Update{ru(2, "second", 0, 10, 5)})
	r.Enqueue(1, []*types.Update{ru(1, "first", 0, 10, 0)})
	r.Flush()
	got := sink.snapshot()
	if len(got) != 2 {
		t.Fatalf("applied %d, want 2", len(got))
	}
	if got[0].Key != "first" || got[1].Key != "second" {
		t.Fatal("cascade order wrong")
	}
}

func TestSiteTimeSnapshot(t *testing.T) {
	sink := newApplySink()
	r := newRecv(sink.apply)
	defer r.Close()
	r.Enqueue(1, []*types.Update{ru(1, "a", 0, 7, 0)})
	r.Flush()
	st := r.SiteTime()
	if st.Get(1) != 7 {
		t.Fatalf("SiteTime = %v", st)
	}
	st.Set(1, 99) // snapshot must be a copy
	if r.SiteTimeEntry(1) != 7 {
		t.Fatal("SiteTime returned internal state")
	}
}

func TestApplyRequired(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil Apply should panic")
		}
	}()
	New(Config{DC: 0, DCs: 2})
}

// TestEnqueueReleasesWithoutWaitingForTheTick: arrivals wake the release
// loop, so an enqueued update applies at once without any Flush call, and
// a SiteTime advance closes the channel a visibility wait parks on.
func TestEnqueueReleasesWithoutWaitingForTheTick(t *testing.T) {
	sink := newApplySink()
	r := newRecv(sink.apply)
	defer r.Close()
	advanced := r.Advanced()
	r.Enqueue(1, []*types.Update{ru(1, "x", 0, 10, 0)})
	select {
	case <-advanced:
	case <-time.After(time.Second):
		t.Fatal("SiteTime advance not signalled; the enqueue did not wake the loop")
	}
	if r.SiteTimeEntry(1) != 10 || len(sink.snapshot()) != 1 {
		t.Fatalf("SiteTime[1] = %v, applied %d; want 10 and 1", r.SiteTimeEntry(1), len(sink.snapshot()))
	}

	// A refused release stays queued and retries on the next arrival.
	u := ru(1, "late", 0, 20, 0)
	sink.setRefuse(u.ID(), true)
	r.Enqueue(1, []*types.Update{u})
	r.Flush() // serializes with the loop's pass: the release is parked now
	advanced = r.Advanced()
	sink.setRefuse(u.ID(), false)
	r.Enqueue(1, []*types.Update{ru(1, "next", 0, 30, 0)})
	select {
	case <-advanced:
	case <-time.After(time.Second):
		t.Fatal("the next arrival did not retry the refused release")
	}
}

// TestParkedReleaseIsNotPolled: a release whose Apply refuses (the
// release path is closed or wedged) stays queued until something wakes
// the loop. Nothing retries it on a timer, so over 100ms with no further
// arrival Apply runs exactly once — the pass the enqueue itself woke.
func TestParkedReleaseIsNotPolled(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	r := New(Config{DC: 0, DCs: 2, Apply: func(*types.Update, time.Time) bool {
		mu.Lock()
		calls++
		mu.Unlock()
		return false
	}})
	defer r.Close()
	r.Enqueue(1, []*types.Update{ru(1, "parked", 0, 10)})
	time.Sleep(100 * time.Millisecond)
	mu.Lock()
	got := calls
	mu.Unlock()
	if got != 1 {
		t.Fatalf("Apply ran %d times over 100ms with no arrival, want exactly 1", got)
	}
	if r.QueueLen(1) != 1 || r.SiteTimeEntry(1) != 0 {
		t.Fatalf("refused release left queue %d, SiteTime[1] %v; want 1 and 0", r.QueueLen(1), r.SiteTimeEntry(1))
	}
}
