package eunomia

import (
	"errors"
	"sync"
	"testing"
	"time"

	"eunomia/internal/hlc"
	"eunomia/internal/types"
)

// fakeConn is a scriptable replica connection.
type fakeConn struct {
	mu         sync.Mutex
	watermark  hlc.Timestamp
	ops        []*types.Update
	heartbeats []hlc.Timestamp
	failN      int // fail the next N calls
	failAll    bool
	filtered   int // ops at or below the watermark when they arrived
	masked     int // of those, ops never ingested before: lost to a mark
	refused    int // marks whose base was not yet held
	seen       map[hlc.Timestamp]bool
}

var errFake = errors.New("fake conn failure")

func (f *fakeConn) NewBatch(_ types.PartitionID, ops []*types.Update) (hlc.Timestamp, error) {
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
	for _, u := range ops {
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
	return f.watermark, nil
}

// Heartbeat adopts the mark only when the stream is held up to base, as
// the real replica does.
func (f *fakeConn) Heartbeat(_ types.PartitionID, base, ts hlc.Timestamp) (hlc.Timestamp, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failAll {
		return 0, errFake
	}
	f.heartbeats = append(f.heartbeats, ts)
	switch {
	case ts <= f.watermark:
	case f.watermark < base:
		f.refused++
	default:
		f.watermark = ts
	}
	return f.watermark, nil
}

// asyncConn is a pipelined link in front of a fakeConn: calls return the
// last acknowledged watermark at once, and batches and marks reach the
// fake in send order a few flush periods later. Every dropEvery-th batch
// that carries an operation not sent before is lost on the way while the
// mark behind it still arrives — the gap a replica must refuse to paper
// over. Unlike fabric.ReplicaConn, it forwards every flush's whole
// unacknowledged suffix, so it exercises marks over a gap, not a later
// batch crossing one.
type asyncConn struct {
	inner     *fakeConn
	dropEvery int
	delay     time.Duration
	line      chan asyncCall

	mu    sync.Mutex
	acked hlc.Timestamp
	sent  hlc.Timestamp // highest timestamp ever offered
	fresh int           // batches that carried something new
}

type asyncCall struct {
	due     time.Time
	deliver func() (hlc.Timestamp, error)
}

func newAsyncConn(inner *fakeConn, dropEvery int, delay time.Duration) *asyncConn {
	// Sized above any test's flush count × two calls per flush, so a send
	// never waits on the delivery goroutine.
	a := &asyncConn{inner: inner, dropEvery: dropEvery, delay: delay, line: make(chan asyncCall, 1<<16)}
	go func() {
		for call := range a.line {
			time.Sleep(time.Until(call.due))
			if w, err := call.deliver(); err == nil {
				a.mu.Lock()
				a.acked = max(a.acked, w)
				a.mu.Unlock()
			}
		}
	}()
	return a
}

func (a *asyncConn) send(deliver func() (hlc.Timestamp, error)) hlc.Timestamp {
	a.line <- asyncCall{due: time.Now().Add(a.delay), deliver: deliver}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.acked
}

func (a *asyncConn) NewBatch(p types.PartitionID, ops []*types.Update) (hlc.Timestamp, error) {
	a.mu.Lock()
	drop := false
	if last := ops[len(ops)-1].TS; last > a.sent {
		a.sent = last
		a.fresh++
		drop = a.fresh%a.dropEvery == 0
	}
	w := a.acked
	a.mu.Unlock()
	if drop {
		return w, nil
	}
	ops = append([]*types.Update(nil), ops...)
	return a.send(func() (hlc.Timestamp, error) { return a.inner.NewBatch(p, ops) }), nil
}

func (a *asyncConn) Heartbeat(p types.PartitionID, base, ts hlc.Timestamp) (hlc.Timestamp, error) {
	return a.send(func() (hlc.Timestamp, error) { return a.inner.Heartbeat(p, base, ts) }), nil
}

func (a *asyncConn) close() { close(a.line) }

func (f *fakeConn) opCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.ops)
}

func (f *fakeConn) hbCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.heartbeats)
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
	waitFor(t, time.Second, func() bool { return a.hbCount() >= 3 })
	// Heartbeats must be increasing.
	hbs := func() []hlc.Timestamp {
		a.mu.Lock()
		defer a.mu.Unlock()
		return append([]hlc.Timestamp(nil), a.heartbeats...)
	}()
	for i := 1; i < len(hbs); i++ {
		if hbs[i] <= hbs[i-1] {
			t.Fatal("heartbeats not strictly increasing")
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
// pipelined link whose acknowledgements trail by several flushes and
// which loses batches while the marks behind them arrive: only the base
// check keeps those marks from masking the lost operations.
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
			t.Fatal("no mark was refused; the lossy link exercised nothing")
		}
	})
}

// produceRacing drives four producers through conn and waits until a,
// the fake behind it, has ingested every operation, in order, with
// heartbeats.
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

	if a.hbCount() == 0 {
		t.Fatal("no heartbeats were sent; the test exercised nothing")
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
