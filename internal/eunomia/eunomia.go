// Package eunomia implements the paper's central contribution: the Eunomia
// service, which unobtrusively establishes — in the background, off the
// client's critical path — a serialization of all updates of a datacenter
// consistent with causality (§3).
//
// A Replica ingests per-partition streams of timestamped operations and
// heartbeats (Algorithm 3). Because every partition tags its stream with
// strictly increasing hybrid-logical timestamps (Property 2) and timestamps
// respect causality (Property 1), the minimum over the latest timestamp
// received from each partition — the site stable time — bounds from below
// every future arrival; all pending operations at or below it can be
// serialized in timestamp order and shipped to remote datacenters.
//
// Fault tolerance (§3.3, Algorithm 4) runs several replicas: partitions
// send each batch to every replica and track per-replica acknowledgement
// watermarks, resending unacknowledged prefixes, which yields the
// prefix-property over at-least-once channels; replicas deduplicate by
// per-partition watermark; a single (elected, but not required to be
// unique) leader ships stable operations and broadcasts the stable time so
// that followers can prune.
package eunomia

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"eunomia/internal/avltree"
	"eunomia/internal/clock"
	"eunomia/internal/hlc"
	"eunomia/internal/metrics"
	"eunomia/internal/ordered"
	"eunomia/internal/rbtree"
	"eunomia/internal/runs"
	"eunomia/internal/types"
)

// ErrStopped is returned by calls into a crashed or shut-down replica.
var ErrStopped = errors.New("eunomia: replica stopped")

// ErrUnknownPartition reports a stream identifier outside the configured
// partition count — a deployment misconfiguration (e.g. processes booted
// with different -partitions values), surfaced loudly instead of panicking
// on a fabric-delivered message.
var ErrUnknownPartition = errors.New("eunomia: unknown partition stream")

// TreeKind selects the pending-set implementation.
type TreeKind int

const (
	// Runs, the zero value and the default, keeps one sorted run per
	// partition stream and merges the runs on extraction (internal/runs):
	// the stream rule makes every insert an append.
	Runs TreeKind = iota
	// RedBlack is the paper's choice (§6), kept for its ablation.
	RedBlack
	// AVL reproduces the alternative the paper measured and rejected.
	AVL
)

func newSet(k TreeKind) ordered.Set[*types.Update] {
	switch k {
	case RedBlack:
		return rbtree.New[*types.Update]()
	case AVL:
		return avltree.New[*types.Update]()
	default:
		return runs.New[*types.Update]()
	}
}

// ShipFunc consumes a stable, timestamp-ordered batch of operations
// (PROCESS(StableOps) in Algorithms 3 and 4). The geo-replication layer
// ships them to remote datacenters; benchmarks count them. from identifies
// the replica acting as leader, so shippers can use per-sender FIFO
// channels (receivers deduplicate overlapping streams after failover).
type ShipFunc func(from types.ReplicaID, ops []*types.Update)

// Config parameterises a replica set.
type Config struct {
	// Partitions is N, the number of partition streams feeding the
	// service. Stability requires every partition to have reported at
	// least once.
	Partitions int
	// StableInterval is θ. The leader runs PROCESS_STABLE whenever a
	// stream's watermark moves; θ is the period of the fallback round
	// that also announces the stable time to followers, and of the
	// followers' leader-suspicion check. Default 1ms.
	StableInterval time.Duration
	// SuspectAfter is how long a follower waits without a STABLE
	// notification before probing for a dead leader. Default
	// 10×StableInterval.
	SuspectAfter time.Duration
	// Tree selects the pending-set structure; the zero value is the
	// per-stream run set, and only the §6 ablation sets another.
	Tree TreeKind
	// MessageCost charges emulated per-batch processing time (one
	// message receive and parse) to the replica. Because partitions
	// batch (§5), this cost is amortized over every operation in the
	// batch — the structural reason Eunomia out-scales sequencers,
	// which pay it per operation. The saturation experiments set it;
	// protocol tests leave it zero.
	MessageCost time.Duration
}

func (c *Config) fill() {
	if c.Partitions <= 0 {
		panic("eunomia: Config.Partitions must be positive")
	}
	if c.StableInterval <= 0 {
		c.StableInterval = time.Millisecond
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 10 * c.StableInterval
	}
}

// Stats exposes replica counters for tests and reports.
type Stats struct {
	OpsReceived   int64 // fresh operations inserted
	Duplicates    int64 // resent operations filtered by watermark
	Batches       int64 // messages received that carried operations
	MarksRefused  int64 // stream entries refused: their base was not yet held
	OpsShipped    int64 // operations handed to ShipFunc (leader only)
	Stabilization int64 // PROCESS_STABLE rounds executed as leader
	Pending       int   // current pending-set size
	StableTime    hlc.Timestamp
	Leader        bool
}

// Replica is one member of the Eunomia service. All exported methods are
// safe for concurrent use.
type Replica struct {
	id    types.ReplicaID
	cfg   Config
	ship  ShipFunc
	peers []*Replica // all replicas including self, indexed by id

	mu            sync.Mutex
	ops           ordered.Set[*types.Update]
	partitionTime []hlc.Timestamp
	stableTime    hlc.Timestamp
	lastStableMsg time.Time

	leader  atomic.Int32
	stopped atomic.Bool
	done    chan struct{}
	wake    chan struct{} // 1-slot: a partition watermark moved
	loopWG  sync.WaitGroup

	opsReceived   metrics.Counter
	duplicates    metrics.Counter
	batches       metrics.Counter
	marksRefused  metrics.Counter
	opsShipped    metrics.Counter
	stabilization metrics.Counter
}

// NewCluster builds n replicas wired to each other, with replica 0 as the
// initial leader, and starts their stabilization loops. ship is invoked by
// the acting leader with each stable batch, in timestamp order.
//
// n = 1 yields the non-fault-tolerant service of Algorithm 3 exactly.
func NewCluster(n int, cfg Config, ship ShipFunc) *Cluster {
	cfg.fill()
	if n <= 0 {
		n = 1
	}
	if ship == nil {
		ship = func(types.ReplicaID, []*types.Update) {}
	}
	c := &Cluster{replicas: make([]*Replica, n)}
	for i := range c.replicas {
		r := &Replica{
			id:            types.ReplicaID(i),
			cfg:           cfg,
			ship:          ship,
			ops:           newSet(cfg.Tree),
			partitionTime: make([]hlc.Timestamp, cfg.Partitions),
			done:          make(chan struct{}),
			wake:          make(chan struct{}, 1),
			lastStableMsg: time.Now(),
		}
		c.replicas[i] = r
	}
	for _, r := range c.replicas {
		r.peers = c.replicas
		r.loopWG.Add(1)
		go r.loop()
	}
	return c
}

// Cluster groups the replicas of one datacenter's Eunomia service.
type Cluster struct {
	replicas []*Replica
}

// Replicas returns the replica set (crashed replicas included).
func (c *Cluster) Replicas() []*Replica { return c.replicas }

// Replica returns replica id.
func (c *Cluster) Replica(id types.ReplicaID) *Replica { return c.replicas[id] }

// Stop shuts down every replica.
func (c *Cluster) Stop() {
	for _, r := range c.replicas {
		r.Stop()
	}
}

// Leader returns the lowest-id replica that currently believes itself
// leader, for tests and reports; with a single replica this is replica 0.
func (c *Cluster) Leader() *Replica {
	for _, r := range c.replicas {
		if !r.stopped.Load() && r.isLeader() {
			return r
		}
	}
	return nil
}

// ID returns the replica's identifier.
func (r *Replica) ID() types.ReplicaID { return r.id }

// NewBatch ingests one flush of partition b.Partition's stream (Algorithm
// 4 lines 1-5, with Algorithm 3 line 5's heartbeat as b.Mark) under the
// stream rule (see ingestLocked). It returns the acknowledgement
// watermark: the largest timestamp this replica now holds from the
// partition.
func (r *Replica) NewBatch(b types.PartitionBatch) (hlc.Timestamp, error) {
	if r.stopped.Load() {
		return 0, ErrStopped
	}
	if !r.validPartition(b.Partition) {
		return 0, ErrUnknownPartition
	}
	if len(b.Ops) > 0 {
		r.charge()
	}
	r.mu.Lock()
	w, moved := r.ingestLocked(b)
	r.mu.Unlock()
	if moved {
		r.poke()
	}
	return w, nil
}

// NewMultiBatch ingests a stream frame: many partitions' flushes in one
// message, as a fan-in aggregator (internal/fabric.Aggregator) merges them
// or a partition's conn sends one. Each entry follows the same rule as
// NewBatch; the returned marks hold the post-ingest watermark per
// partition, in entry order.
func (r *Replica) NewMultiBatch(batches []types.PartitionBatch) ([]types.PartitionMark, error) {
	if r.stopped.Load() {
		return nil, ErrStopped
	}
	for _, sb := range batches {
		if len(sb.Ops) > 0 {
			r.charge()
			break
		}
	}
	acks := make([]types.PartitionMark, 0, len(batches))
	moved := false
	r.mu.Lock()
	for _, sb := range batches {
		if !r.validPartition(sb.Partition) {
			// A merged frame mixes many processes' streams; one
			// misconfigured sender (disagreeing -partitions) must not
			// poison the others. Skip its stream — no acknowledgement
			// means it alone stalls.
			continue
		}
		w, m := r.ingestLocked(sb)
		moved = moved || m
		acks = append(acks, types.PartitionMark{Partition: sb.Partition, TS: w})
	}
	r.mu.Unlock()
	if moved {
		r.poke()
	}
	return acks, nil
}

// charge accounts one message that carried operations: its emulated
// receive cost, and the Batches counter.
func (r *Replica) charge() {
	clock.SpinFor(r.cfg.MessageCost)
	r.batches.Inc()
}

// ingestLocked applies the stream rule to one entry and returns the
// watermark held afterwards and whether it moved. A stream travels in
// timestamp order over a FIFO link, and the sender's Base is a position
// it knows was delivered unless a frame was lost. So a watermark below
// Base means a lost batch lies below b.Ops: the whole entry is refused
// (Stats.MarksRefused) and the sender's stall resend fills the gap.
// Otherwise the operations above the watermark are ingested in order —
// those at or below it are resent duplicates (at-least-once delivery) —
// and the watermark rises to b.Mark, since the sender issues nothing at
// or below it beyond b.Ops. Caller holds r.mu.
func (r *Replica) ingestLocked(b types.PartitionBatch) (hlc.Timestamp, bool) {
	held := r.partitionTime[b.Partition]
	if held < b.Base {
		r.marksRefused.Inc()
		return held, false
	}
	w := held
	for _, u := range b.Ops {
		if u.TS <= w {
			r.duplicates.Inc()
			continue
		}
		w = u.TS
		r.ops.Insert(ordered.Key{TS: u.TS, Partition: int32(u.Partition), Seq: u.Seq}, u)
		r.opsReceived.Inc()
	}
	w = max(w, b.Mark)
	r.partitionTime[b.Partition] = w
	return w, w > held
}

// validPartition bounds-checks a fabric-delivered stream identifier; the
// partition count is fixed at construction, so no lock is needed.
func (r *Replica) validPartition(p types.PartitionID) bool {
	return p >= 0 && int(p) < len(r.partitionTime)
}

// poke wakes the stabilization loop after a partition watermark moved.
// The channel holds one token, so a burst of arrivals — every stream of a
// datacenter reports on the same flush boundary — coalesces into one or
// two PROCESS_STABLE rounds.
func (r *Replica) poke() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// Ping reports liveness; the rank-based leader election probes with it.
func (r *Replica) Ping() error {
	if r.stopped.Load() {
		return ErrStopped
	}
	return nil
}

// Stable installs a leader-announced stable time (Algorithm 4 lines
// 13-15): the follower discards pending operations at or below it, since
// the leader has already shipped them.
func (r *Replica) Stable(ts hlc.Timestamp) error {
	if r.stopped.Load() {
		return ErrStopped
	}
	r.mu.Lock()
	if ts > r.stableTime {
		r.stableTime = ts
		r.ops.ExtractUpTo(ts)
	}
	r.lastStableMsg = time.Now()
	r.mu.Unlock()
	return nil
}

// Stop crashes the replica: the stabilization loop halts and every
// subsequent call returns ErrStopped. Used by the failure-impact
// experiments (Figure 4) and by orderly shutdown.
func (r *Replica) Stop() {
	if r.stopped.CompareAndSwap(false, true) {
		close(r.done)
	}
	r.loopWG.Wait()
}

// Stopped reports whether the replica has been crashed or shut down.
func (r *Replica) Stopped() bool { return r.stopped.Load() }

func (r *Replica) isLeader() bool { return types.ReplicaID(r.leader.Load()) == r.id }

// Stats snapshots the replica's counters.
func (r *Replica) Stats() Stats {
	r.mu.Lock()
	pending := r.ops.Len()
	stable := r.stableTime
	r.mu.Unlock()
	return Stats{
		OpsReceived:   r.opsReceived.Load(),
		Duplicates:    r.duplicates.Load(),
		Batches:       r.batches.Load(),
		MarksRefused:  r.marksRefused.Load(),
		OpsShipped:    r.opsShipped.Load(),
		Stabilization: r.stabilization.Load(),
		Pending:       pending,
		StableTime:    stable,
		Leader:        r.isLeader(),
	}
}

// loop is the PROCESS_STABLE driver (Algorithm 3 line 7 / Algorithm 4 line
// 6) plus the follower-side leader suspicion. The leader stabilizes as
// soon as a partition watermark moves, so the stable time follows the
// last stream's report instead of the next θ tick; the θ ticker remains
// for announcing the stable time to followers and for their suspicion of
// a silent leader.
func (r *Replica) loop() {
	defer r.loopWG.Done()
	ticker := time.NewTicker(r.cfg.StableInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.done:
			return
		case <-r.wake:
			if r.isLeader() {
				r.processStable(false)
			}
		case <-ticker.C:
			if r.isLeader() {
				r.processStable(true)
			} else {
				r.maybeTakeOver()
			}
		}
	}
}

// processStable computes StableTime = MIN(PartitionTime), extracts every
// pending operation at or below it in timestamp order, ships them, and —
// when announce is set — notifies follower replicas.
func (r *Replica) processStable(announce bool) {
	r.mu.Lock()
	stable := minTS(r.partitionTime)
	var batch []*types.Update
	if stable > r.stableTime {
		r.stableTime = stable
		batch = r.ops.ExtractUpTo(stable)
	}
	r.mu.Unlock()

	r.stabilization.Inc()
	if len(batch) > 0 {
		r.ship(r.id, batch)
		r.opsShipped.Add(int64(len(batch)))
	}
	if stable == 0 || !announce {
		return // no partition has reported yet, or not an announcing round
	}
	for _, peer := range r.peers {
		if peer.id == r.id {
			continue
		}
		_ = peer.Stable(stable) // dead followers are simply skipped
	}
}

// maybeTakeOver implements the deterministic rank-based election: if the
// follower has not heard a STABLE announcement for SuspectAfter, the
// lowest-id replica that answers Ping (possibly itself) is the leader.
// Correctness does not require a unique leader — concurrent leaders ship
// duplicates, which receivers discard — so suspicion can be aggressive.
func (r *Replica) maybeTakeOver() {
	r.mu.Lock()
	quiet := time.Since(r.lastStableMsg)
	r.mu.Unlock()
	if quiet < r.cfg.SuspectAfter {
		return
	}
	for _, peer := range r.peers {
		if peer.id == r.id {
			break // every lower-ranked replica is dead; take over
		}
		if peer.Ping() == nil {
			// A lower-ranked replica is alive; recognise it and keep
			// waiting (it may itself be mid-takeover).
			r.leader.Store(int32(peer.id))
			return
		}
	}
	r.leader.Store(int32(r.id))
}

func minTS(ts []hlc.Timestamp) hlc.Timestamp {
	if len(ts) == 0 {
		return 0
	}
	m := ts[0]
	for _, t := range ts[1:] {
		if t < m {
			m = t
		}
	}
	return m
}
