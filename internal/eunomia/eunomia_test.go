package eunomia

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"eunomia/internal/hlc"
	"eunomia/internal/types"
)

// shipSink collects shipped operations in arrival order.
type shipSink struct {
	mu  sync.Mutex
	ops []*types.Update
}

func (s *shipSink) ship(_ types.ReplicaID, ops []*types.Update) {
	s.mu.Lock()
	s.ops = append(s.ops, ops...)
	s.mu.Unlock()
}

func (s *shipSink) snapshot() []*types.Update {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*types.Update(nil), s.ops...)
}

func (s *shipSink) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ops)
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("condition not reached within %v", timeout)
}

func up(p types.PartitionID, seq uint64, ts hlc.Timestamp) *types.Update {
	return &types.Update{Partition: p, Seq: seq, TS: ts}
}

func TestSingleReplicaOrdersAcrossPartitions(t *testing.T) {
	sink := &shipSink{}
	c := NewCluster(1, Config{Partitions: 2, StableInterval: time.Millisecond}, sink.ship)
	defer c.Stop()
	r := c.Replica(0)

	// Partition 0 has seen up to ts 30, partition 1 up to ts 25.
	if _, err := r.NewBatch(types.PartitionBatch{Partition: 0, Ops: []*types.Update{up(0, 1, 10), up(0, 2, 30)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.NewBatch(types.PartitionBatch{Partition: 1, Ops: []*types.Update{up(1, 1, 5), up(1, 2, 25)}}); err != nil {
		t.Fatal(err)
	}

	// Stable time is min(30, 25) = 25: ops 5, 10, 25 ship; 30 stays.
	waitFor(t, time.Second, func() bool { return sink.len() == 3 })
	got := sink.snapshot()
	want := []hlc.Timestamp{5, 10, 25}
	for i, u := range got {
		if u.TS != want[i] {
			t.Fatalf("shipped[%d].TS = %v, want %v", i, u.TS, want[i])
		}
	}
	if st := r.Stats(); st.Pending != 1 {
		t.Fatalf("pending = %d, want 1 (the ts-30 op)", st.Pending)
	}

	// A mark from partition 1 releases the rest.
	if _, err := r.NewBatch(types.PartitionBatch{Partition: 1, Base: 25, Mark: 40}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool { return sink.len() == 4 })
	if last := sink.snapshot()[3]; last.TS != 30 {
		t.Fatalf("last shipped ts = %v, want 30", last.TS)
	}
}

func TestNoStabilityUntilEveryPartitionReports(t *testing.T) {
	sink := &shipSink{}
	c := NewCluster(1, Config{Partitions: 3, StableInterval: time.Millisecond}, sink.ship)
	defer c.Stop()
	r := c.Replica(0)
	r.NewBatch(types.PartitionBatch{Partition: 0, Ops: []*types.Update{up(0, 1, 10)}})
	r.NewBatch(types.PartitionBatch{Partition: 1, Ops: []*types.Update{up(1, 1, 10)}})
	time.Sleep(20 * time.Millisecond)
	if sink.len() != 0 {
		t.Fatal("ops shipped before partition 2 ever reported — Property 2 basis violated")
	}
	r.NewBatch(types.PartitionBatch{Partition: 2, Mark: 15})
	waitFor(t, time.Second, func() bool { return sink.len() == 2 })
}

// TestMultiBatchSkipsUnknownPartitions pins the merged frame's blast
// radius: a frame mixes many processes' streams, so one misconfigured
// sender (a partition id outside the replica's configured count) must be
// skipped — no acknowledgement, no error — while every other stream in
// the frame is ingested and acknowledged normally.
func TestMultiBatchSkipsUnknownPartitions(t *testing.T) {
	sink := &shipSink{}
	c := NewCluster(1, Config{Partitions: 2, StableInterval: time.Millisecond}, sink.ship)
	defer c.Stop()
	r := c.Replica(0)

	acks, err := r.NewMultiBatch([]types.PartitionBatch{
		{Partition: 0, Ops: []*types.Update{up(0, 1, 10)}},
		{Partition: 99, Ops: []*types.Update{up(99, 1, 5)}}, // misconfigured sender
		{Partition: 1, Ops: []*types.Update{up(1, 1, 20)}},
	})
	if err != nil {
		t.Fatalf("one bad stream poisoned the frame: %v", err)
	}
	if len(acks) != 2 || acks[0] != (types.PartitionMark{Partition: 0, TS: 10}) || acks[1] != (types.PartitionMark{Partition: 1, TS: 20}) {
		t.Fatalf("acks = %+v, want partitions 0 and 1 only", acks)
	}
	if st := r.Stats(); st.OpsReceived != 2 {
		t.Fatalf("received %d ops, want 2 (the unknown stream skipped)", st.OpsReceived)
	}
	if _, err := r.NewBatch(types.PartitionBatch{Partition: 99, Mark: 30}); err == nil {
		t.Fatal("a direct entry for an unknown partition must error")
	}
}

func TestBatchDeduplication(t *testing.T) {
	sink := &shipSink{}
	c := NewCluster(1, Config{Partitions: 1, StableInterval: time.Millisecond}, sink.ship)
	defer c.Stop()
	r := c.Replica(0)

	batch := []*types.Update{up(0, 1, 10), up(0, 2, 20)}
	w1, _ := r.NewBatch(types.PartitionBatch{Partition: 0, Ops: batch})
	w2, _ := r.NewBatch(types.PartitionBatch{Partition: 0, Ops: batch}) // full resend (at-least-once)
	if w1 != 20 || w2 != 20 {
		t.Fatalf("watermarks = %v, %v; want 20, 20", w1, w2)
	}
	st := r.Stats()
	if st.OpsReceived != 2 || st.Duplicates != 2 {
		t.Fatalf("received=%d dups=%d, want 2/2", st.OpsReceived, st.Duplicates)
	}
	waitFor(t, time.Second, func() bool { return sink.len() == 2 })
}

func TestStaleHeartbeatIgnored(t *testing.T) {
	c := NewCluster(1, Config{Partitions: 1, StableInterval: time.Hour}, nil)
	defer c.Stop()
	r := c.Replica(0)
	r.NewBatch(types.PartitionBatch{Partition: 0, Ops: []*types.Update{up(0, 1, 100)}})
	if w, _ := r.NewBatch(types.PartitionBatch{Partition: 0, Mark: 50}); w != 100 { // stale
		t.Fatalf("stale mark answered %v, want the held 100", w)
	}
	if w, _ := r.NewBatch(types.PartitionBatch{Partition: 0}); w != 100 {
		t.Fatalf("watermark = %v after stale mark, want 100", w)
	}
}

// TestHeartbeatRequiresBase pins the stream rule: a replica ingests an
// entry only when it already holds the stream up to the entry's base, so
// neither a mark nor a batch that overtook a lost batch can move the
// watermark past the lost operations and turn their resend into
// duplicates. A refusal answers with the watermark actually held.
func TestHeartbeatRequiresBase(t *testing.T) {
	c := NewCluster(1, Config{Partitions: 1, StableInterval: time.Hour}, nil)
	defer c.Stop()
	r := c.Replica(0)
	r.NewBatch(types.PartitionBatch{Partition: 0, Ops: []*types.Update{up(0, 1, 10)}})

	// The batch carrying ts 20 was lost; the next flush's mark arrives,
	// then a batch streamed above it.
	if w, err := r.NewBatch(types.PartitionBatch{Partition: 0, Base: 20, Mark: 30}); err != nil || w != 10 {
		t.Fatalf("mark above a gap answered %v, %v; want the held 10", w, err)
	}
	if w, _ := r.NewBatch(types.PartitionBatch{Partition: 0, Base: 20, Ops: []*types.Update{up(0, 3, 35)}, Mark: 40}); w != 10 {
		t.Fatalf("batch above a gap answered %v; want the held 10", w)
	}
	if st := r.Stats(); st.MarksRefused != 2 || st.OpsReceived != 1 {
		t.Fatalf("refused %d, received %d; want 2 and 1", st.MarksRefused, st.OpsReceived)
	}
	// The stall resend of the unacknowledged suffix, over the
	// acknowledged base, fills the gap and is ingested, not filtered.
	if w, _ := r.NewBatch(types.PartitionBatch{Partition: 0, Base: 10, Ops: []*types.Update{up(0, 2, 20), up(0, 3, 35)}, Mark: 40}); w != 40 {
		t.Fatalf("resend acknowledged %v, want 40", w)
	}
	if st := r.Stats(); st.OpsReceived != 3 || st.Duplicates != 0 || st.MarksRefused != 2 {
		t.Fatalf("received=%d dups=%d refused=%d, want 3/0/2", st.OpsReceived, st.Duplicates, st.MarksRefused)
	}
}

func TestStoppedReplicaRefuses(t *testing.T) {
	c := NewCluster(1, Config{Partitions: 1}, nil)
	r := c.Replica(0)
	r.Stop()
	if _, err := r.NewBatch(types.PartitionBatch{Partition: 0}); err != ErrStopped {
		t.Fatalf("NewBatch after Stop: %v", err)
	}
	if _, err := r.NewBatch(types.PartitionBatch{Partition: 0, Mark: 1}); err != ErrStopped {
		t.Fatalf("mark after Stop: %v", err)
	}
	if err := r.Ping(); err != ErrStopped {
		t.Fatalf("Ping after Stop: %v", err)
	}
	if err := r.Stable(1); err != ErrStopped {
		t.Fatalf("Stable after Stop: %v", err)
	}
	r.Stop() // idempotent
	c.Stop()
}

func TestFollowerPrunesOnStable(t *testing.T) {
	sink := &shipSink{}
	c := NewCluster(2, Config{Partitions: 1, StableInterval: time.Millisecond}, sink.ship)
	defer c.Stop()
	leader, follower := c.Replica(0), c.Replica(1)

	leader.NewBatch(types.PartitionBatch{Partition: 0, Ops: []*types.Update{up(0, 1, 10)}})
	follower.NewBatch(types.PartitionBatch{Partition: 0, Ops: []*types.Update{up(0, 1, 10)}})
	waitFor(t, time.Second, func() bool { return sink.len() == 1 })
	// The STABLE broadcast prunes the follower without it shipping.
	waitFor(t, time.Second, func() bool { return follower.Stats().Pending == 0 })
	if follower.Stats().OpsShipped != 0 {
		t.Fatal("follower shipped operations while a leader was alive")
	}
}

// TestFollowerStableDrainsRuns prunes a follower holding several
// partitions' runs with leader-announced stable times alone: a stable time
// between the runs' timestamps leaves exactly the entries above it, and
// one at the top leaves nothing, round after round.
func TestFollowerStableDrainsRuns(t *testing.T) {
	const partitions = 4
	c := NewCluster(2, Config{Partitions: partitions, StableInterval: time.Millisecond}, nil)
	defer c.Stop()
	follower := c.Replica(1)
	seq := uint64(0)
	for round := hlc.Timestamp(0); round < 3; round++ {
		base := round * 100
		for p := types.PartitionID(0); p < partitions; p++ {
			b := types.PartitionBatch{Partition: p}
			for ts := base + 1 + hlc.Timestamp(p); ts <= base+100; ts += partitions {
				seq++
				b.Ops = append(b.Ops, up(p, seq, ts))
			}
			if _, err := follower.NewBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		if got := follower.Stats().Pending; got != 100 {
			t.Fatalf("round %d: Pending %d after ingest, want 100", round, got)
		}
		follower.Stable(base + 50)
		if got := follower.Stats().Pending; got != 50 {
			t.Fatalf("round %d: Pending %d after Stable(%d), want 50", round, got, base+50)
		}
		follower.Stable(base + 100)
		if got := follower.Stats().Pending; got != 0 {
			t.Fatalf("round %d: Pending %d after Stable(%d), want 0", round, got, base+100)
		}
	}
	if st := follower.Stats(); st.OpsShipped != 0 {
		t.Fatalf("follower shipped %d operations", st.OpsShipped)
	}
}

func TestLeaderFailover(t *testing.T) {
	sink := &shipSink{}
	cfg := Config{Partitions: 1, StableInterval: time.Millisecond, SuspectAfter: 10 * time.Millisecond}
	c := NewCluster(3, cfg, sink.ship)
	defer c.Stop()

	for _, r := range c.Replicas() {
		r.NewBatch(types.PartitionBatch{Partition: 0, Ops: []*types.Update{up(0, 1, 10)}})
	}
	waitFor(t, time.Second, func() bool { return sink.len() >= 1 })

	// Crash the leader; replica 1 must take over and resume shipping.
	c.Replica(0).Stop()
	for _, r := range c.Replicas()[1:] {
		r.NewBatch(types.PartitionBatch{Partition: 0, Ops: []*types.Update{up(0, 2, 20)}})
	}
	waitFor(t, 2*time.Second, func() bool {
		for _, u := range sink.snapshot() {
			if u.TS == 20 {
				return true
			}
		}
		return false
	})
	if l := c.Leader(); l == nil || l.ID() != 1 {
		t.Fatalf("expected replica 1 as leader, got %v", l)
	}

	// Crash the second leader; replica 2 takes over.
	c.Replica(1).Stop()
	c.Replica(2).NewBatch(types.PartitionBatch{Partition: 0, Ops: []*types.Update{up(0, 3, 30)}})
	waitFor(t, 2*time.Second, func() bool {
		for _, u := range sink.snapshot() {
			if u.TS == 30 {
				return true
			}
		}
		return false
	})
}

// TestFailoverNoLossNoReorder: under a leader crash, every operation is
// shipped at least once and any receiver applying with the documented
// monotonic filter sees each exactly once, in order.
func TestFailoverNoLossNoReorder(t *testing.T) {
	var mu sync.Mutex
	seen := map[hlc.Timestamp]int{}
	var lastApplied hlc.Timestamp
	applied := 0
	ship := func(_ types.ReplicaID, ops []*types.Update) {
		mu.Lock()
		defer mu.Unlock()
		for _, u := range ops {
			seen[u.TS]++
			if u.TS > lastApplied { // receiver's dedup rule
				lastApplied = u.TS
				applied++
			}
		}
	}
	cfg := Config{Partitions: 1, StableInterval: time.Millisecond, SuspectAfter: 10 * time.Millisecond}
	c := NewCluster(2, cfg, ship)
	defer c.Stop()

	const total = 200
	crashAt := 100
	for i := 1; i <= total; i++ {
		batch := []*types.Update{up(0, uint64(i), hlc.Timestamp(i*10))}
		for _, r := range c.Replicas() {
			r.NewBatch(types.PartitionBatch{Partition: 0, Ops: batch}) // dead replicas just error; ignore
		}
		if i == crashAt {
			c.Replica(0).Stop()
		}
		if i%20 == 0 {
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor(t, 3*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return applied == total
	})
	mu.Lock()
	defer mu.Unlock()
	for i := 1; i <= total; i++ {
		if seen[hlc.Timestamp(i*10)] == 0 {
			t.Fatalf("operation ts=%d never shipped", i*10)
		}
	}
}

// TestShippedOrderIsTotalAndCausal drives random skewed partitions through
// a full cluster via real clients and verifies the shipped sequence is
// sorted, complete, and respects per-partition order.
func TestShippedOrderIsTotalAndCausal(t *testing.T) {
	sink := &shipSink{}
	const parts = 4
	c := NewCluster(1, Config{Partitions: parts, StableInterval: time.Millisecond}, sink.ship)
	defer c.Stop()

	clients := make([]*Client, parts)
	for i := range clients {
		clients[i] = NewClient(ClientConfig{
			Partition:     types.PartitionID(i),
			BatchInterval: time.Millisecond,
		}, ClusterConns(c), hlc.NewClock(nil))
	}

	const perPart = 300
	var wg sync.WaitGroup
	var shared hlc.Timestamp // simulates a client hopping partitions
	var sharedMu sync.Mutex
	for i := 0; i < parts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(i)))
			for s := 1; s <= perPart; s++ {
				sharedMu.Lock()
				dep := shared
				sharedMu.Unlock()
				ts := clients[i].Issue(dep, up(types.PartitionID(i), uint64(s), 0))
				sharedMu.Lock()
				if ts > shared {
					shared = ts
				}
				sharedMu.Unlock()
				if r.Intn(50) == 0 {
					time.Sleep(time.Millisecond)
				}
			}
		}(i)
	}
	wg.Wait()
	// Keep the clients alive until everything has shipped: their idle
	// heartbeats are what advance the stable time past the final ops.
	waitFor(t, 10*time.Second, func() bool { return sink.len() == parts*perPart })
	for _, cl := range clients {
		cl.Close()
	}

	got := sink.snapshot()
	perPartSeen := make([]uint64, parts)
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if b.TS < a.TS {
			t.Fatalf("shipped order violates timestamps at %d: %v then %v", i, a.TS, b.TS)
		}
		if b.TS == a.TS && b.Partition < a.Partition {
			t.Fatalf("tie-break order violated at %d", i)
		}
	}
	for _, u := range got {
		if u.Seq != perPartSeen[u.Partition]+1 {
			t.Fatalf("partition %d: seq %d shipped after %d — per-partition order broken",
				u.Partition, u.Seq, perPartSeen[u.Partition])
		}
		perPartSeen[u.Partition] = u.Seq
	}
}

func TestStatsSnapshot(t *testing.T) {
	c := NewCluster(1, Config{Partitions: 1, StableInterval: time.Millisecond}, nil)
	defer c.Stop()
	r := c.Replica(0)
	r.NewBatch(types.PartitionBatch{Partition: 0, Ops: []*types.Update{up(0, 1, 10)}})
	waitFor(t, time.Second, func() bool { return r.Stats().OpsShipped == 1 })
	st := r.Stats()
	if !st.Leader || st.OpsReceived != 1 || st.StableTime != 10 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero partitions should panic")
		}
	}()
	NewCluster(1, Config{Partitions: 0}, nil)
}
