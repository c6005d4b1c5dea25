package eunomia

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"eunomia/internal/clock"
	"eunomia/internal/hlc"
	"eunomia/internal/types"
)

// Conn is the partition's view of one Eunomia replica. *Replica implements
// it directly (intra-datacenter traffic); tests substitute flaky or
// duplicating connections to exercise the at-least-once tolerance.
type Conn interface {
	// NewBatch offers one flush of the stream (see Replica.NewBatch)
	// and returns the acknowledged watermark.
	NewBatch(b types.PartitionBatch) (hlc.Timestamp, error)
}

// ClusterConns adapts a Cluster's replicas to the Conn slice a Client
// expects.
func ClusterConns(c *Cluster) []Conn {
	conns := make([]Conn, len(c.replicas))
	for i, r := range c.replicas {
		conns[i] = r
	}
	return conns
}

// ClientConfig parameterises the partition-side batching client.
type ClientConfig struct {
	// Partition identifies the stream.
	Partition types.PartitionID
	// BatchInterval is how often buffered operations are propagated to
	// the replicas (§5, Communication Patterns; the evaluation uses
	// 1 ms). Flushes fire on wall-clock multiples of it, so every stream
	// of a datacenter reports in the same instant; each flush also
	// reports the stream's watermark. Default 1ms.
	BatchInterval time.Duration
	// MaxPending bounds the operations buffered or reserved but not yet
	// acknowledged; Issue and Reserve block beyond it. This is the
	// in-process analogue of TCP backpressure from the service — without
	// it an overdriven service would just grow the queue unboundedly.
	// Default 16384.
	MaxPending int
	// FireAndForget disables the acknowledgement/resend machinery and
	// sends each batch exactly once to the first replica only — the
	// partition side of the non-fault-tolerant Algorithm 3 service.
	// Figure 3 measures the fault-tolerance overhead against this mode.
	FireAndForget bool
	// RedundantPaths marks the conns as redundant routes into one
	// upstream service — §5 propagation-tree aggregators, which forward
	// only upstream-durable watermarks — rather than independent
	// replicas. An acknowledgement from any path then means the service
	// itself holds the operation (an aggregator fronting a replica set
	// acknowledges the minimum over all replicas), so the client prunes
	// on the maximum watermark over paths instead of the minimum over
	// live replicas; a crashed aggregator never stalls the stream as
	// long as one path survives.
	RedundantPaths bool
}

func (c *ClientConfig) fill() {
	if c.BatchInterval <= 0 {
		c.BatchInterval = time.Millisecond
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 16384
	}
}

// Client is the sole issuer of one partition stream's timestamps. It
// buffers the stream's operations and propagates them to every Eunomia
// replica, implementing the partition side of Algorithm 4: batches are
// sent to all replicas, per-replica acknowledgement watermarks are tracked
// (Ack_n), and unacknowledged suffixes are resent each round, which
// establishes the prefix property over at-least-once delivery.
//
// Every flush sends each replica one entry: the operations it has not
// acknowledged, the stream's watermark (the mark; alone, a heartbeat),
// and a base, the watermark that replica has acknowledged (0 when the
// entry carries no operations). A replica holding the stream below the
// base refuses the whole entry, so neither a batch nor a mark that
// crosses a lost batch can mask it (a conn that trims what it already
// streamed raises the base to match, see fabric.ReplicaConn).
//
// The client issues with hlc.Clock.Next, which reads no clock: the stream
// id in a timestamp's low bits keeps the datacenter's streams from ever
// tying, and every flush advances the clock to physical time, so a
// timestamp trails wall time by at most one batch interval.
//
// The watermark never passes a timestamp that is issued but not yet
// enqueued: Issue stamps and enqueues in one step under the client's
// lock, and a timestamp taken with Reserve holds the stream back —
// flushes ship only the operations below the oldest reservation and
// promise at most one less than it — until Add enqueues it. So no
// operation can be filtered as a duplicate without having been ingested,
// however long its producer is descheduled (see
// TestClientHeartbeatNeverMasksOps and
// TestClientHeldReservationIsNotMasked). This replaces Algorithm 2's Δ
// test, which only made that loss unlikely.
type Client struct {
	cfg   ClientConfig
	conns []Conn
	clock *hlc.Clock

	mu       sync.Mutex
	notFull  *sync.Cond
	pending  []*types.Update // ascending by TS
	reserved []hlc.Timestamp // issued by Reserve, not yet added; ascending
	closed   bool
	acked    []hlc.Timestamp // per replica
	dead     []bool          // per replica, sticky
	added    int64
	block    []types.Update // IssueValue's unused records

	interval atomic.Int64 // current batch interval in nanoseconds

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// updateBlock is how many operation records IssueValue allocates at once.
const updateBlock = 64

// NewClient starts the propagation loop for one partition. clock is the
// partition's hybrid clock: the client issues every timestamp of the
// stream from it, and the partition may only Observe it (remote applies,
// recovery), never issue from it itself. The partition id must be below
// hlc.MaxStreams; a larger one panics.
func NewClient(cfg ClientConfig, conns []Conn, clock *hlc.Clock) *Client {
	cfg.fill()
	if cfg.Partition < 0 || int(cfg.Partition) >= hlc.MaxStreams {
		panic(fmt.Sprintf("eunomia: partition %d outside the clock's %d stream ids", cfg.Partition, hlc.MaxStreams))
	}
	clock.Advance()
	c := &Client{
		cfg:   cfg,
		conns: conns,
		clock: clock,
		acked: make([]hlc.Timestamp, len(conns)),
		dead:  make([]bool, len(conns)),
		stop:  make(chan struct{}),
	}
	c.notFull = sync.NewCond(&c.mu)
	c.interval.Store(int64(cfg.BatchInterval))
	c.wg.Add(1)
	go c.loop()
	return c
}

// Issue stamps u with the stream's next timestamp — strictly greater than
// dep and than every timestamp issued before (Algorithm 2 line 5) — and
// enqueues it for propagation, in one step under the client's lock, then
// returns the timestamp. It blocks only under backpressure; after Close it
// still issues but no longer enqueues.
func (c *Client) Issue(dep hlc.Timestamp, u *types.Update) hlc.Timestamp {
	c.mu.Lock()
	c.waitRoomLocked()
	ts := c.issueLocked(dep, u)
	c.mu.Unlock()
	return ts
}

// IssueValue issues a fresh operation carrying value on the stream, as
// Issue does. Its record comes from a block the client allocates
// updateBlock at a time, so the caller allocates nothing per operation.
func (c *Client) IssueValue(dep hlc.Timestamp, value types.Value) hlc.Timestamp {
	c.mu.Lock()
	c.waitRoomLocked()
	if len(c.block) == 0 {
		c.block = make([]types.Update, updateBlock)
	}
	u := &c.block[0]
	c.block = c.block[1:]
	u.Partition, u.Value = c.cfg.Partition, value
	ts := c.issueLocked(dep, u)
	c.mu.Unlock()
	return ts
}

// issueLocked stamps u and, unless the client is closed, enqueues it. The
// fresh timestamp is the largest ever issued, so appending keeps pending
// sorted.
func (c *Client) issueLocked(dep hlc.Timestamp, u *types.Update) hlc.Timestamp {
	u.TS = c.clock.Next(dep, int(c.cfg.Partition))
	if !c.closed {
		c.pending = append(c.pending, u)
		c.added++
	}
	return u.TS
}

// Reserve issues the stream's next timestamp (as Issue does) for an
// operation that is enqueued later with Add — the partition logs the
// update to its WAL in between. Until then the stream's watermark stays
// below the reservation. Reserve blocks only under backpressure, which
// counts reservations; Add never blocks.
func (c *Client) Reserve(dep hlc.Timestamp) hlc.Timestamp {
	c.mu.Lock()
	c.waitRoomLocked()
	ts := c.clock.Next(dep, int(c.cfg.Partition))
	if !c.closed {
		c.reserved = append(c.reserved, ts)
	}
	c.mu.Unlock()
	return ts
}

// Add enqueues the operation for a timestamp obtained from Reserve and
// releases the reservation. Operations from concurrent producers may be
// added in any order: Add inserts by timestamp. After Close it drops the
// operation. Adding a timestamp Reserve did not issue is a programming
// error and panics.
func (c *Client) Add(u *types.Update) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	i := len(c.reserved) - 1
	for i >= 0 && c.reserved[i] != u.TS {
		i--
	}
	if i < 0 {
		c.mu.Unlock()
		panic(fmt.Sprintf("eunomia: Add of unreserved timestamp %v", u.TS))
	}
	c.reserved = append(c.reserved[:i], c.reserved[i+1:]...)
	// Insert from the tail: the operation usually belongs at or near the
	// end. Everything an in-flight flush reads sits below the oldest
	// reservation, so the shift never touches it.
	j := len(c.pending)
	for j > 0 && c.pending[j-1].TS > u.TS {
		j--
	}
	c.pending = append(c.pending, nil)
	copy(c.pending[j+1:], c.pending[j:])
	c.pending[j] = u
	c.added++
	c.mu.Unlock()
}

// waitRoomLocked blocks while MaxPending operations are buffered or
// reserved, until acknowledgements make room or the client closes.
func (c *Client) waitRoomLocked() {
	for !c.closed && len(c.pending)+len(c.reserved) >= c.cfg.MaxPending {
		c.notFull.Wait()
	}
}

// shippableLocked returns how many pending operations lie below the
// oldest reservation: the prefix a flush may send. Anything above it
// would move a replica's watermark past the reserved timestamp, which
// would then be filtered as a duplicate.
func (c *Client) shippableLocked() int {
	if len(c.reserved) == 0 {
		return len(c.pending)
	}
	oldest := c.reserved[0]
	return sort.Search(len(c.pending), func(j int) bool { return c.pending[j].TS > oldest })
}

// watermarkLocked advances the clock to max(physical, last), the one
// clock read of a flush, and returns the timestamp a mark may promise once
// the shippable prefix is held: just below the oldest reservation, or with
// none outstanding the advanced clock, which every later issue exceeds.
// The clock advances even while a reservation holds the mark back, so
// the stream's next timestamps never trail this flush's physical time.
func (c *Client) watermarkLocked() hlc.Timestamp {
	now := c.clock.Advance()
	if len(c.reserved) > 0 {
		return c.reserved[0] - 1
	}
	return now
}

// SetInterval changes the propagation period at runtime. The straggler
// experiment (Figure 7) uses it to make one partition communicate
// abnormally slowly, then heal it.
func (c *Client) SetInterval(d time.Duration) {
	if d <= 0 {
		d = time.Millisecond
	}
	c.interval.Store(int64(d))
}

// Pending returns the current unacknowledged buffer length.
func (c *Client) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// Added returns the total number of operations enqueued.
func (c *Client) Added() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.added
}

// Close stops the propagation loop after a final flush and releases any
// producer blocked on backpressure.
func (c *Client) Close() {
	c.stopOnce.Do(func() {
		c.mu.Lock()
		c.closed = true
		c.notFull.Broadcast()
		c.mu.Unlock()
		close(c.stop)
	})
	c.wg.Wait()
}

// loop flushes on wall-clock multiples of the batch interval (see
// clock.UntilBoundary), re-reading the interval each round so SetInterval
// takes effect at the next boundary.
func (c *Client) loop() {
	defer c.wg.Done()
	timer := time.NewTimer(clock.UntilBoundary(time.Duration(c.interval.Load())))
	defer timer.Stop()
	for {
		select {
		case <-c.stop:
			c.flush()
			return
		case <-timer.C:
		}
		c.flush()
		timer.Reset(clock.UntilBoundary(time.Duration(c.interval.Load())))
	}
}

// flush sends each live replica one entry: the suffix of shippable
// operations it has not acknowledged, with the stream's watermark; then
// it prunes fully acknowledged operations.
func (c *Client) flush() {
	if c.cfg.FireAndForget {
		c.flushFireAndForget()
		return
	}
	// The watermark is taken under the lock the issuing calls hold, with
	// the snapshot: it lies below every outstanding reservation and every
	// later issue, so every operation at or below it is in the snapshot,
	// and a replica that ingests an entry holds them all (Algorithm 2
	// lines 10-12, without Δ).
	c.mu.Lock()
	n := c.shippableLocked()
	snapshot := c.pending[:n:n]
	mark := c.watermarkLocked()
	acked := append([]hlc.Timestamp(nil), c.acked...)
	dead := append([]bool(nil), c.dead...)
	c.mu.Unlock()

	anyAlive := false
	for i, conn := range c.conns {
		if dead[i] {
			continue
		}
		b := types.PartitionBatch{Partition: c.cfg.Partition, Mark: mark}
		// Suffix of operations with TS > acked[i], over the base the
		// replica has acknowledged holding.
		if start := sort.Search(len(snapshot), func(j int) bool { return snapshot[j].TS > acked[i] }); start < len(snapshot) {
			b.Base, b.Ops = acked[i], snapshot[start:]
		}
		w, err := conn.NewBatch(b)
		if err != nil {
			dead[i] = true
			continue
		}
		anyAlive = true
		acked[i] = max(acked[i], w)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.acked {
		if acked[i] > c.acked[i] {
			c.acked[i] = acked[i]
		}
		c.dead[i] = c.dead[i] || dead[i]
	}
	if !anyAlive {
		// Every replica is gone; hold operations (the service is down,
		// Figure 4's 1-FT case) and let backpressure stall producers.
		return
	}
	// Prune the prefix acknowledged by every live replica — or, when the
	// conns are redundant paths to one service, the prefix acknowledged
	// through any path (each path's watermark already encodes service
	// durability; see ClientConfig.RedundantPaths).
	minAck := hlc.Timestamp(1<<63 - 1)
	if c.cfg.RedundantPaths {
		minAck = 0
		for i := range c.acked {
			if c.acked[i] > minAck {
				minAck = c.acked[i]
			}
		}
	} else {
		for i := range c.acked {
			if c.dead[i] {
				continue
			}
			if c.acked[i] < minAck {
				minAck = c.acked[i]
			}
		}
	}
	drop := sort.Search(len(c.pending), func(j int) bool { return c.pending[j].TS > minAck })
	c.pruneLocked(drop)
}

// pruneLocked drops the first n pending operations. The rest move to a
// fresh array, since a flush's snapshot of the old one may still be in
// flight (a simnet message, a pipelined conn's queue). The fresh array
// has room for n more, about one flush interval's issues, so the issuing
// calls that follow do not grow it again from a few slots, and a burst's
// array is not carried into the quiet flushes after it.
func (c *Client) pruneLocked(n int) {
	if n == 0 {
		return
	}
	rest := make([]*types.Update, len(c.pending)-n, len(c.pending))
	copy(rest, c.pending[n:])
	c.pending = rest
	c.notFull.Broadcast()
}

// flushFireAndForget is the Algorithm 3 (non-fault-tolerant) propagation
// path: one send to one replica, no watermark bookkeeping, buffered
// operations dropped as soon as the send returns. Nothing is
// unacknowledged, so the base is 0.
func (c *Client) flushFireAndForget() {
	c.mu.Lock()
	n := c.shippableLocked()
	b := types.PartitionBatch{Partition: c.cfg.Partition, Ops: c.pending[:n:n], Mark: c.watermarkLocked()}
	c.pruneLocked(n)
	c.mu.Unlock()
	_, _ = c.conns[0].NewBatch(b) // service down: Algorithm 3 has no recovery
}
