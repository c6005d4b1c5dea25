package eunomia

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eunomia/internal/hlc"
	"eunomia/internal/types"
)

// fakeConn is a scriptable replica connection.
type fakeConn struct {
	mu        sync.Mutex
	watermark hlc.Timestamp
	ops       []*types.Update
	marks     []hlc.Timestamp
	failN     int // fail the next N calls
	failAll   bool
	filtered  int // ops at or below the watermark when they arrived
	masked    int // of those, ops never ingested before: lost over a gap
	refused   int // entries whose base was not yet held
	seen      map[hlc.Timestamp]bool
}

var errFake = errors.New("fake conn failure")

// NewBatch applies the replica's stream rule: an entry whose base is not
// held is refused whole; otherwise fresh operations are ingested (resent
// ones filtered) and the watermark rises to the mark.
func (f *fakeConn) NewBatch(b types.PartitionBatch) (hlc.Timestamp, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failAll || f.failN > 0 {
		if f.failN > 0 {
			f.failN--
		}
		return 0, errFake
	}
	if f.seen == nil {
		f.seen = make(map[hlc.Timestamp]bool)
	}
	f.marks = append(f.marks, b.Mark)
	if f.watermark < b.Base {
		f.refused++
		return f.watermark, nil
	}
	for _, u := range b.Ops {
		if u.TS <= f.watermark {
			f.filtered++
			if !f.seen[u.TS] {
				f.masked++
			}
			continue // dedup, as the real replica does
		}
		f.watermark = u.TS
		f.seen[u.TS] = true
		f.ops = append(f.ops, u)
	}
	f.watermark = max(f.watermark, b.Mark)
	return f.watermark, nil
}

// asyncConn is a pipelined link in front of a fakeConn that resends as
// fabric.ReplicaConn does: calls return the last acknowledged watermark
// at once; entries reach the fake in send order a few flush periods
// later, trimmed of the operations already streamed over a base raised to
// the streamed position; and only when acknowledgements stall for
// asyncStallAfter does the whole unacknowledged suffix go out again.
// Every dropEvery-th entry that carries an operation not sent before is
// lost on the way, so the entries behind it — their batches and marks
// alike — arrive above a gap the fake must refuse to paper over.
type asyncConn struct {
	inner     *fakeConn
	dropEvery int
	delay     time.Duration
	line      chan asyncCall

	mu       sync.Mutex
	acked    hlc.Timestamp
	progress time.Time     // last acknowledged movement or resend
	streamed hlc.Timestamp // trim position; reset to acked by a resend
	sent     hlc.Timestamp // highest timestamp ever sent
	fresh    int           // entries that carried something new
}

// asyncStallAfter is the asyncConn's stall timer: several times its
// delivery delay, as fabric.ReplicaConn's is several RTTs.
const asyncStallAfter = 20 * time.Millisecond

type asyncCall struct {
	due     time.Time
	deliver func() (hlc.Timestamp, error)
}

func newAsyncConn(inner *fakeConn, dropEvery int, delay time.Duration) *asyncConn {
	// Sized above any test's flush count, so a send never waits on the
	// delivery goroutine.
	a := &asyncConn{inner: inner, dropEvery: dropEvery, delay: delay, line: make(chan asyncCall, 1<<16)}
	go func() {
		for call := range a.line {
			time.Sleep(time.Until(call.due))
			if w, err := call.deliver(); err == nil {
				a.mu.Lock()
				if w > a.acked {
					a.acked, a.progress = w, time.Now()
				}
				a.mu.Unlock()
			}
		}
	}()
	return a
}

func (a *asyncConn) NewBatch(b types.PartitionBatch) (hlc.Timestamp, error) {
	now := time.Now()
	a.mu.Lock()
	if a.streamed > a.acked {
		if a.progress.IsZero() {
			a.progress = now
		} else if now.Sub(a.progress) > asyncStallAfter {
			a.streamed, a.progress = a.acked, now
		}
	}
	if start := sort.Search(len(b.Ops), func(i int) bool { return b.Ops[i].TS > a.streamed }); start > 0 {
		b.Ops = b.Ops[start:]
		b.Base = max(b.Base, a.streamed)
	}
	drop := false
	if n := len(b.Ops); n > 0 {
		last := b.Ops[n-1].TS
		a.streamed = max(a.streamed, last)
		if last > a.sent {
			a.sent = last
			a.fresh++
			drop = a.fresh%a.dropEvery == 0
		}
	}
	w := a.acked
	a.mu.Unlock()
	if !drop {
		b.Ops = append([]*types.Update(nil), b.Ops...)
		a.line <- asyncCall{due: now.Add(a.delay), deliver: func() (hlc.Timestamp, error) { return a.inner.NewBatch(b) }}
	}
	return w, nil
}

func (a *asyncConn) close() { close(a.line) }

func (f *fakeConn) opCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.ops)
}

func (f *fakeConn) markCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.marks)
}

func (f *fakeConn) opTimestamps() []hlc.Timestamp {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]hlc.Timestamp, len(f.ops))
	for i, u := range f.ops {
		out[i] = u.TS
	}
	return out
}

func newTestClient(conns []Conn, cfg ClientConfig) *Client {
	if cfg.BatchInterval == 0 {
		cfg.BatchInterval = time.Millisecond
	}
	return NewClient(cfg, conns, hlc.NewClock(nil))
}

func TestClientDeliversAllOpsToAllReplicas(t *testing.T) {
	a, b := &fakeConn{}, &fakeConn{}
	cl := newTestClient([]Conn{a, b}, ClientConfig{Partition: 0})
	for i := 1; i <= 100; i++ {
		cl.Issue(0, up(0, uint64(i), 0))
	}
	waitFor(t, time.Second, func() bool { return a.opCount() == 100 && b.opCount() == 100 })
	cl.Close()
}

func TestClientResendsToRecoveredConn(t *testing.T) {
	// A connection failing transiently is marked dead; the prefix
	// property means the surviving replica still received everything.
	good := &fakeConn{}
	bad := &fakeConn{failN: 1000000}
	cl := newTestClient([]Conn{good, bad}, ClientConfig{Partition: 0})
	defer cl.Close()
	for i := 1; i <= 50; i++ {
		cl.Issue(0, up(0, uint64(i), 0))
	}
	waitFor(t, time.Second, func() bool { return good.opCount() == 50 })
	if bad.opCount() != 0 {
		t.Fatal("dead conn received ops")
	}
}

func TestClientResendEstablishesPrefixProperty(t *testing.T) {
	// A replica that errors a few times still ends with a gap-free
	// prefix of the stream once it starts answering.
	flaky := &fakeConn{failN: 3}
	cl := newTestClient([]Conn{flaky}, ClientConfig{Partition: 0})
	defer cl.Close()
	// The client marks a replica dead on first error and never retries
	// — with a single replica the stream must therefore stall, not gap.
	for i := 1; i <= 10; i++ {
		cl.Issue(0, up(0, uint64(i), 0))
	}
	time.Sleep(20 * time.Millisecond)
	if got := flaky.opCount(); got != 0 {
		t.Fatalf("ops leaked past a dead connection: %d", got)
	}
	if cl.Pending() != 10 {
		t.Fatalf("pending = %d, want 10 (held for a future replica)", cl.Pending())
	}
}

func TestClientHeartbeatWhenIdle(t *testing.T) {
	a := &fakeConn{}
	cl := newTestClient([]Conn{a}, ClientConfig{Partition: 0, BatchInterval: time.Millisecond})
	defer cl.Close()
	cl.Issue(0, up(0, 1, 0)) // something was issued once
	waitFor(t, time.Second, func() bool { return a.markCount() >= 3 })
	// Marks must be increasing.
	hbs := func() []hlc.Timestamp {
		a.mu.Lock()
		defer a.mu.Unlock()
		return append([]hlc.Timestamp(nil), a.marks...)
	}()
	for i := 1; i < len(hbs); i++ {
		if hbs[i] <= hbs[i-1] {
			t.Fatal("marks not strictly increasing")
		}
	}
}

// TestClientHeartbeatNeverMasksOps is the §3.3 safety property: no
// heartbeat may advance a replica's watermark past an operation that the
// replica has not ingested, or the operation would be filtered as a
// duplicate on resend and lost. Producers here race the 1-ms flushes from
// several goroutines, through both issuing calls, with reservations held
// across flushes: every flush heartbeats (there is no Δ), so only the
// watermark rule — heartbeat below the oldest reservation, ship only the
// prefix under it — keeps every operation. The async variant adds a
// pipelined link whose acknowledgements trail by several flushes, which
// sends each operation once until its stall timer fires, and which loses
// entries while the ones behind them arrive: only the base check keeps
// those later batches and marks from masking the lost operations.
func TestClientHeartbeatNeverMasksOps(t *testing.T) {
	t.Run("sync", func(t *testing.T) {
		a := &fakeConn{}
		produceRacing(t, a, a)
		a.mu.Lock()
		defer a.mu.Unlock()
		if a.filtered != 0 {
			t.Fatalf("%d operations arrived at or below a heartbeat watermark", a.filtered)
		}
	})
	t.Run("async-lossy", func(t *testing.T) {
		a := &fakeConn{}
		link := newAsyncConn(a, 3, 3*time.Millisecond)
		produceRacing(t, link, a)
		defer link.close()
		a.mu.Lock()
		defer a.mu.Unlock()
		if a.masked != 0 {
			t.Fatalf("%d operations were masked by a mark and never ingested", a.masked)
		}
		if a.refused == 0 {
			t.Fatal("no entry was refused; the lossy link exercised nothing")
		}
	})
}

// produceRacing drives four producers through conn and waits until a,
// the fake behind it, has ingested every operation, in order, with
// marks.
func produceRacing(t *testing.T, conn Conn, a *fakeConn) {
	t.Helper()
	cl := newTestClient([]Conn{conn}, ClientConfig{Partition: 0, BatchInterval: time.Millisecond})
	defer cl.Close()

	const producers, per = 4, 125
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; i <= per; i++ {
				seq := uint64(g*per + i)
				if i%2 == 0 {
					cl.Issue(0, up(0, seq, 0))
					continue
				}
				ts := cl.Reserve(0)
				if i%10 == 1 {
					time.Sleep(3 * time.Millisecond) // held across flushes
				}
				cl.Add(up(0, seq, ts))
			}
		}(g)
	}
	wg.Wait()
	waitFor(t, 5*time.Second, func() bool { return a.opCount() == producers*per })

	if a.markCount() == 0 {
		t.Fatal("no marks were sent; the test exercised nothing")
	}
	ts := a.opTimestamps()
	for i := 1; i < len(ts); i++ {
		if ts[i] <= ts[i-1] {
			t.Fatal("replica ingested ops out of order")
		}
	}
}

// TestClientHeldReservationIsNotMasked holds a reserved timestamp for many
// flush periods — a producer descheduled between taking its timestamp and
// enqueuing, or a slow WAL append — while the stream keeps issuing above
// it. The real replica must still ingest the held operation: nothing
// above the reservation ships and no heartbeat passes it until Add. A
// raw clock tick in place of Reserve loses the operation as a duplicate.
func TestClientHeldReservationIsNotMasked(t *testing.T) {
	sink := &shipSink{}
	c := NewCluster(1, Config{Partitions: 1, StableInterval: time.Millisecond}, sink.ship)
	defer c.Stop()
	cl := NewClient(ClientConfig{Partition: 0, BatchInterval: time.Millisecond}, ClusterConns(c), hlc.NewClock(nil))
	defer cl.Close()

	before := cl.Issue(0, up(0, 1, 0))
	held := cl.Reserve(0)
	after := cl.Issue(0, up(0, 3, 0))
	time.Sleep(10 * time.Millisecond) // ≥ 5 flush periods
	if st := c.Replica(0).Stats(); st.StableTime >= held || st.OpsReceived != 1 {
		t.Fatalf("while held: stable %v, received %d; want stable below %v and only the op under it", st.StableTime, st.OpsReceived, held)
	}
	cl.Add(up(0, 2, held))

	waitFor(t, 2*time.Second, func() bool { return c.Replica(0).Stats().OpsShipped == 3 })
	st := c.Replica(0).Stats()
	if st.Duplicates != 0 || st.OpsReceived != 3 {
		t.Fatalf("received %d, duplicates %d; want 3 and 0", st.OpsReceived, st.Duplicates)
	}
	got := sink.snapshot()
	if len(got) != 3 || got[0].TS != before || got[1].TS != held || got[2].TS != after {
		t.Fatalf("shipped %d ops out of order, want [%v %v %v]", len(got), before, held, after)
	}
}

// countingClock is a manual physical clock that counts its reads.
type countingClock struct {
	now   atomic.Int64
	reads atomic.Int64
}

func (c *countingClock) NowMicros() int64 {
	c.reads.Add(1)
	return c.now.Load()
}

// newManualClient returns a client over a counting manual clock whose
// timer never fires within a test: the test flushes by hand.
func newManualClient(conns []Conn, partition types.PartitionID) (*Client, *countingClock) {
	src := &countingClock{}
	src.now.Store(1000)
	return NewClient(ClientConfig{Partition: partition, BatchInterval: 1000 * time.Hour}, conns, hlc.NewClock(src)), src
}

// TestClientIssuesWithoutReadingTheClock: the issuing calls read no
// clock; the client reads it once when built and once per flush.
func TestClientIssuesWithoutReadingTheClock(t *testing.T) {
	a := &fakeConn{}
	cl, src := newManualClient([]Conn{a}, 3)
	defer cl.Close()
	if n := src.reads.Load(); n != 1 {
		t.Fatalf("NewClient read the clock %d times, want 1", n)
	}
	for i := uint64(1); i <= 100; i++ {
		cl.Issue(0, up(3, 2*i, 0))
		cl.Add(up(3, 2*i+1, cl.Reserve(0)))
		cl.IssueValue(0, nil)
	}
	if n := src.reads.Load(); n != 1 {
		t.Fatalf("300 issues read the clock %d times, want none", n-1)
	}
	cl.flush()
	if n := src.reads.Load(); n != 2 {
		t.Fatalf("a flush read the clock %d times, want 1", n-1)
	}
	for _, ts := range a.opTimestamps() {
		if got := int(ts % hlc.MaxStreams); got != 3 {
			t.Fatalf("timestamp %v carries stream %d, want 3", ts, got)
		}
	}
}

// TestClientSlowStreamTrailsOneFlush: a stream that issues less often
// than it flushes still issues every timestamp at or above the physical
// time of its previous flush, also while a held reservation keeps its
// mark back.
func TestClientSlowStreamTrailsOneFlush(t *testing.T) {
	a := &fakeConn{}
	cl, src := newManualClient([]Conn{a}, 0)
	defer cl.Close()
	var held hlc.Timestamp
	for i := uint64(1); i <= 20; i++ {
		now := int64(1000 + 500*i)
		src.now.Store(now)
		cl.flush()
		if i == 5 {
			held = cl.Reserve(0)
		}
		if i == 15 {
			cl.Add(up(0, 0, held))
			held = 0
		}
		if ts := cl.Issue(0, up(0, i, 0)); ts.Physical() < now {
			t.Fatalf("issue %d stamped %v, behind its previous flush at %d µs (held %v)", i, ts, now, held)
		}
		if held != 0 {
			a.mu.Lock()
			mark := a.marks[len(a.marks)-1]
			a.mu.Unlock()
			if mark >= held {
				t.Fatalf("flush %d marked %v, not below the held reservation %v", i, mark, held)
			}
		}
	}
}

// TestClientBackpressure: the issuing calls block once MaxPending
// operations are buffered or reserved, and Close releases them.
func TestClientBackpressure(t *testing.T) {
	blocked := &fakeConn{failAll: true} // nothing ever acknowledged
	cl := newTestClient([]Conn{blocked}, ClientConfig{
		Partition:     0,
		BatchInterval: time.Millisecond,
		MaxPending:    10,
	})
	held := cl.Reserve(0) // reservations count toward the bound
	issued := make(chan int, 1)
	go func() {
		n := 0
		for i := 1; i <= 50; i++ {
			cl.Issue(0, up(0, uint64(i), 0))
			n++
		}
		issued <- n
	}()
	select {
	case <-issued:
		t.Fatal("Issue did not block at MaxPending with a dead service")
	case <-time.After(50 * time.Millisecond):
	}
	if got := cl.Pending(); got != 9 {
		t.Fatalf("pending = %d, want 9 beside the reservation", got)
	}
	cl.Close() // releases the blocked producer
	select {
	case <-issued:
	case <-time.After(time.Second):
		t.Fatal("Close did not release the blocked Issue")
	}
	cl.Add(up(0, 99, held)) // after Close: dropped, never blocks
}

// TestClientAddRequiresReservation: enqueuing a self-stamped operation
// would bypass the watermark rule, so Add refuses it.
func TestClientAddRequiresReservation(t *testing.T) {
	cl := newTestClient([]Conn{&fakeConn{}}, ClientConfig{Partition: 0})
	defer cl.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Add accepted a timestamp Reserve never issued")
		}
	}()
	cl.Add(up(0, 1, hlc.New(1, 0)))
}

func TestClientFireAndForget(t *testing.T) {
	a, b := &fakeConn{}, &fakeConn{}
	cl := newTestClient([]Conn{a, b}, ClientConfig{
		Partition:     0,
		FireAndForget: true,
	})
	for i := 1; i <= 20; i++ {
		cl.Issue(0, up(0, uint64(i), 0))
	}
	waitFor(t, time.Second, func() bool { return a.opCount() == 20 })
	cl.Close()
	if b.opCount() != 0 {
		t.Fatal("fire-and-forget mode must send to the first replica only")
	}
	if cl.Pending() != 0 {
		t.Fatal("fire-and-forget left ops pending")
	}
}

func TestClientSetInterval(t *testing.T) {
	a := &fakeConn{}
	cl := newTestClient([]Conn{a}, ClientConfig{Partition: 0, BatchInterval: time.Millisecond})
	defer cl.Close()

	cl.SetInterval(100 * time.Millisecond) // straggle
	time.Sleep(5 * time.Millisecond)       // let the new interval arm
	cl.Issue(0, up(0, 1, 0))
	time.Sleep(20 * time.Millisecond)
	early := a.opCount()
	waitFor(t, time.Second, func() bool { return a.opCount() == 1 })
	if early != 0 {
		t.Log("straggling client flushed early; timing-sensitive, tolerated")
	}
	cl.SetInterval(0) // heals to the 1ms default
	cl.Issue(0, up(0, 2, 0))
	waitFor(t, time.Second, func() bool { return a.opCount() == 2 })
}

// TestClientPruneDropsBurstArray: a prune sizes the fresh pending array by
// the flush it prunes, not by the largest buffer the client ever held, so
// the quiet flushes after a burst do not each allocate a burst-sized array.
func TestClientPruneDropsBurstArray(t *testing.T) {
	a := &fakeConn{}
	cl := newTestClient([]Conn{a}, ClientConfig{Partition: 0})
	defer cl.Close()
	const burst = 4096
	for i := 1; i <= burst; i++ {
		cl.Issue(0, up(0, uint64(i), 0))
	}
	waitFor(t, time.Second, func() bool { return a.opCount() == burst && cl.Pending() == 0 })
	for i := 1; i <= 3; i++ {
		cl.Issue(0, up(0, uint64(burst+i), 0))
		waitFor(t, time.Second, func() bool { return a.opCount() == burst+i && cl.Pending() == 0 })
	}
	cl.mu.Lock()
	c := cap(cl.pending)
	cl.mu.Unlock()
	if c > 16 {
		t.Fatalf("pending array holds %d slots after three single-op flushes, want at most 16", c)
	}
}

func TestClientAddedCounter(t *testing.T) {
	a := &fakeConn{}
	cl := newTestClient([]Conn{a}, ClientConfig{Partition: 0})
	defer cl.Close()
	for i := 1; i <= 7; i++ {
		cl.Issue(0, up(0, uint64(i), 0))
	}
	if cl.Added() != 7 {
		t.Fatalf("Added = %d", cl.Added())
	}
}

func TestClusterConns(t *testing.T) {
	c := NewCluster(3, Config{Partitions: 1}, nil)
	defer c.Stop()
	conns := ClusterConns(c)
	if len(conns) != 3 {
		t.Fatalf("ClusterConns len = %d", len(conns))
	}
}
