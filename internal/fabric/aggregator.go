package fabric

import (
	"sort"
	"sync"
	"time"

	"eunomia/internal/hlc"
	"eunomia/internal/metrics"
	"eunomia/internal/types"
)

// Aggregator is a fan-in node of the §5 propagation tree, hosted as a
// first-class fabric endpoint: when the number of partitions is large,
// all-to-one partition→Eunomia communication stops scaling, so partitions
// stream at intermediate aggregators, which merge many partitions' stream
// entries into one MultiBatchMsg per flush toward their parents — the
// datacenter's Eunomia replica set, or a parent aggregator for deeper
// trees (an Aggregator serves the same frames it emits, so trees of any
// depth compose).
//
// Semantics: the aggregator is transparent to the acknowledgement
// protocol. It buffers operations per partition, forwards them on its own
// flush tick, and reports downstream only the watermark its parents have
// durably acknowledged — never the watermark it has merely buffered. A
// partition therefore keeps resending through an aggregator crash until a
// surviving path acknowledges, preserving the prefix property; a restarted
// aggregator begins with empty state and simply re-forwards what children
// retransmit (parents deduplicate by watermark). The tree is purely a
// message-count optimization, exactly as the paper frames it.
//
// Marks: the aggregator relays a child's mark only once its parents hold
// the child's base and the entry's last operation, so a relayed mark never
// masks an operation buffered here, and its forwarded entries carry base
// 0. It does not check bases on operations: a restarted aggregator has
// no stream state, and refusing entries above it would stall a stream
// whose child has pruned through the other path of its pair. A lost
// forwarded frame can therefore still leave a gap at the parent.
//
// Fabric mechanics mirror ReplicaConn: unacknowledged operations are
// retained and the per-parent unacknowledged suffix is retransmitted
// when a parent's watermark stalls; a completely silent
// parent is suspended and probed (see peerSuspendAfter), so a dead parent
// process cannot wedge the node by filling its transport window.
type Aggregator struct {
	f         Fabric
	local     Addr
	parents   []Addr
	redundant bool
	interval  time.Duration
	level     int

	mu      sync.Mutex
	streams map[types.PartitionID]*aggStream
	dead    []bool // per parent, sticky (explicit Err only)
	alive   []time.Time
	probed  []time.Time

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// BatchesIn / BatchesOut count fan-in efficiency: frames received
	// from children (every message the parent would otherwise have
	// received) versus merged frames forwarded to parents. FlushLatency
	// records how long each merge-and-forward pass takes.
	BatchesIn    metrics.Counter
	BatchesOut   metrics.Counter
	FlushLatency *metrics.Histogram
}

// aggStream is one partition's state through the node.
type aggStream struct {
	pending []*types.Update // buffered beyond acked, ascending by TS
	seen    hlc.Timestamp   // highest buffered timestamp (child-resend dedup)
	acked   hlc.Timestamp   // folded parent watermark, reported downstream
	mark    hlc.Timestamp   // pending mark relay

	// children remembers every downstream sender of this stream, so
	// watermark advances can be pushed without waiting for the child's
	// next send.
	children map[Addr]struct{}

	parentAck  []hlc.Timestamp // per parent: acknowledged watermark
	parentSent []hlc.Timestamp // per parent: highest streamed (resend trim)
	progress   []time.Time     // per parent: last ack movement / resend
}

// AggregatorConfig parameterises a fan-in node.
type AggregatorConfig struct {
	// Fabric carries every edge; the node registers Local on it.
	Fabric Fabric
	// Local is the node's endpoint, conventionally AggregatorAddr(dc, i).
	Local Addr
	// Parents are the upstream endpoints every merged frame goes to: the
	// datacenter's Eunomia replica set, or a parent-aggregator pair for
	// deeper trees. Required, non-empty.
	Parents []Addr
	// RedundantParents marks Parents as redundant routes into one
	// upstream service (a dual-homed parent-aggregator pair) rather than
	// a replica set: downstream watermarks fold with max-over-paths
	// instead of min-over-live-replicas, mirroring
	// eunomia.ClientConfig.RedundantPaths.
	RedundantParents bool
	// FlushInterval is the merge-and-forward period. Default 1ms.
	FlushInterval time.Duration
	// Level labels the node's metrics with its tree level (1 = fed
	// directly by partitions). Default 1.
	Level int
}

// NewAggregator registers a running fan-in node at cfg.Local and starts
// its flush loop. Close unregisters it.
func NewAggregator(cfg AggregatorConfig) *Aggregator {
	if len(cfg.Parents) == 0 {
		panic("fabric: aggregator needs at least one parent")
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = time.Millisecond
	}
	if cfg.Level <= 0 {
		cfg.Level = 1
	}
	now := time.Now()
	a := &Aggregator{
		f:            cfg.Fabric,
		local:        cfg.Local,
		parents:      append([]Addr(nil), cfg.Parents...),
		redundant:    cfg.RedundantParents,
		interval:     cfg.FlushInterval,
		level:        cfg.Level,
		streams:      make(map[types.PartitionID]*aggStream),
		dead:         make([]bool, len(cfg.Parents)),
		alive:        make([]time.Time, len(cfg.Parents)),
		probed:       make([]time.Time, len(cfg.Parents)),
		stop:         make(chan struct{}),
		FlushLatency: metrics.NewHistogram(),
	}
	for i := range a.alive {
		a.alive[i] = now
	}
	a.f.Register(a.local, a.handle)
	a.wg.Add(1)
	go a.loop()
	return a
}

// LocalAddr returns the node's fabric endpoint.
func (a *Aggregator) LocalAddr() Addr { return a.local }

// Level returns the node's tree level (1 = fed directly by partitions).
func (a *Aggregator) Level() int { return a.level }

// Buffered reports operations held beyond the parent-acknowledged
// watermark, summed over streams.
func (a *Aggregator) Buffered() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, s := range a.streams {
		n += len(s.pending)
	}
	return n
}

// Close performs a final flush, stops the node, and unregisters its
// endpoint (subsequent sends to it drop — the fabric's crash model).
func (a *Aggregator) Close() {
	a.stopOnce.Do(func() { close(a.stop) })
	a.wg.Wait()
	a.f.Unregister(a.local)
}

func (a *Aggregator) loop() {
	defer a.wg.Done()
	ticker := time.NewTicker(a.interval)
	defer ticker.Stop()
	for {
		select {
		case <-a.stop:
			a.flush()
			return
		case <-ticker.C:
			a.flush()
		}
	}
}

func (a *Aggregator) stream(p types.PartitionID) *aggStream {
	s := a.streams[p]
	if s == nil {
		s = &aggStream{
			children:   make(map[Addr]struct{}),
			parentAck:  make([]hlc.Timestamp, len(a.parents)),
			parentSent: make([]hlc.Timestamp, len(a.parents)),
			progress:   make([]time.Time, len(a.parents)),
		}
		a.streams[p] = s
	}
	return s
}

// handle is the endpoint: stream frames from partition conns and child
// aggregators, and acknowledgements from parents.
func (a *Aggregator) handle(m Message) {
	switch v := m.Payload.(type) {
	case MultiBatchMsg:
		a.BatchesIn.Inc()
		acks := make([]types.PartitionMark, len(v.Batches))
		for i, b := range v.Batches {
			acks[i] = types.PartitionMark{Partition: b.Partition, TS: a.ingest(m.From, b)}
		}
		a.f.Send(a.local, m.From, MultiAckMsg{Acks: acks})
	case MultiAckMsg:
		a.handleParentAck(m.From, v)
	}
}

// ingest buffers the fresh operations of one child entry and queues its
// mark for relay if the parents hold the stream up to the entry's base
// and last operation; otherwise the mark is dropped, and the child sends
// a fresh one next flush. It returns the watermark the child may treat as
// acknowledged: the parents' (transparency), or the mark once queued — as
// a served replica's is.
func (a *Aggregator) ingest(child Addr, b types.PartitionBatch) hlc.Timestamp {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := a.stream(b.Partition)
	s.children[child] = struct{}{}
	base := b.Base
	for _, u := range b.Ops {
		base = max(base, u.TS)
		if u.TS <= s.seen {
			continue // duplicate of something already buffered/forwarded
		}
		s.seen = u.TS
		s.pending = append(s.pending, u)
	}
	if s.acked < base {
		return s.acked
	}
	s.mark = max(s.mark, b.Mark)
	return max(s.acked, b.Mark)
}

// flush merges every stream's unacknowledged suffix, and its pending mark,
// into one frame per live parent, retransmitting stalled windows. Frames
// are built under the lock and sent outside it, so a backpressured parent
// stalls this loop but never the ingest handler.
func (a *Aggregator) flush() {
	start := time.Now()
	type outFrame struct {
		to  Addr
		msg MultiBatchMsg
	}
	var frames []outFrame
	a.mu.Lock()
	for i, parent := range a.parents {
		if a.dead[i] {
			continue
		}
		probe := false
		if start.Sub(a.alive[i]) > peerSuspendAfter {
			// Silent parent: same suspension as ReplicaConn — drop this
			// round unless a probe (the full unacknowledged window) is
			// due, so a dead parent's transport window never fills.
			if start.Sub(a.probed[i]) < peerProbeEvery {
				continue
			}
			a.probed[i] = start
			probe = true
		}
		// Ready streams (fresh suffix and marks) and lagging streams
		// (window retransmissions) travel in separate frames, ready
		// first: a laggard's retransmitted window — potentially the whole
		// unacknowledged suffix of one slow stream — must not delay the
		// fresh operations of every healthy stream behind it on the same
		// FIFO connection.
		var ready, lagging []types.PartitionBatch
		for p, s := range a.streams {
			resend := false
			if len(s.pending) > 0 {
				if probe {
					s.parentSent[i] = s.parentAck[i]
					s.progress[i] = start
					resend = true
				} else if s.parentSent[i] > s.parentAck[i] {
					// In flight beyond the parent's watermark: if it has
					// stalled, assume the stream was lost and retransmit
					// the unacknowledged window.
					if s.progress[i].IsZero() {
						s.progress[i] = start
					} else if start.Sub(s.progress[i]) > resendAfter {
						s.parentSent[i] = s.parentAck[i]
						s.progress[i] = start
						resend = true
					}
				}
			}
			b := types.PartitionBatch{Partition: p, Mark: s.mark}
			if from := sort.Search(len(s.pending), func(j int) bool { return s.pending[j].TS > s.parentSent[i] }); from < len(s.pending) {
				b.Ops = s.pending[from:]
				s.parentSent[i] = s.pending[len(s.pending)-1].TS
			}
			switch {
			case resend:
				lagging = append(lagging, b)
			case len(b.Ops) > 0 || b.Mark > 0:
				ready = append(ready, b)
			}
		}
		if len(ready) > 0 {
			frames = append(frames, outFrame{to: parent, msg: MultiBatchMsg{Batches: ready}})
		}
		if len(lagging) > 0 {
			frames = append(frames, outFrame{to: parent, msg: MultiBatchMsg{Batches: lagging}})
		}
	}
	for _, s := range a.streams {
		s.mark = 0
	}
	a.mu.Unlock()
	for _, fr := range frames {
		a.BatchesOut.Inc()
		a.f.Send(a.local, fr.to, fr.msg)
	}
	if len(frames) > 0 {
		// Only passes that merged and forwarded something count: an idle
		// ticker pass is not a flush, and recording it would dilute the
		// exported percentiles to near zero.
		a.FlushLatency.RecordDuration(time.Since(start))
	}
}

// ackPush is one downstream watermark notification collected under the
// lock and sent after it.
type ackPush struct {
	child Addr
	mark  types.PartitionMark
}

// handleParentAck folds one parent's watermarks in, prunes what every
// required parent now holds, and pushes advanced watermarks downstream so
// children drain without waiting out a resend stall.
func (a *Aggregator) handleParentAck(from Addr, v MultiAckMsg) {
	idx := -1
	for i, p := range a.parents {
		if p == from {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	now := time.Now()
	var pushes []ackPush
	a.mu.Lock()
	a.alive[idx] = now
	if v.Err != "" {
		// A stopped parent: fold it out of the watermark like the
		// in-process aggregator marked a conn dead. With a replica-set
		// parent this can advance acked (the dead replica was the
		// laggard); the remaining live parents carry the stream.
		if !a.dead[idx] {
			a.dead[idx] = true
			for p, s := range a.streams {
				pushes = a.advance(p, s, pushes)
			}
		}
		a.mu.Unlock()
		a.push(pushes)
		return
	}
	for _, ack := range v.Acks {
		s := a.streams[ack.Partition]
		if s == nil {
			continue
		}
		if ack.TS > s.parentAck[idx] {
			s.parentAck[idx] = ack.TS
			s.progress[idx] = now
		}
		pushes = a.advance(ack.Partition, s, pushes)
	}
	a.mu.Unlock()
	a.push(pushes)
}

// advance refolds one stream's downstream watermark from the per-parent
// state, prunes the buffered prefix it covers, and queues child pushes
// when it moved. Caller holds the lock.
func (a *Aggregator) advance(p types.PartitionID, s *aggStream, pushes []ackPush) []ackPush {
	w := a.fold(s)
	if w <= s.acked {
		return pushes
	}
	s.acked = w
	drop := sort.Search(len(s.pending), func(j int) bool { return s.pending[j].TS > w })
	if drop > 0 {
		// Copy: in-flight frames alias the old backing array.
		s.pending = append([]*types.Update(nil), s.pending[drop:]...)
	}
	for child := range s.children {
		pushes = append(pushes, ackPush{child: child, mark: types.PartitionMark{Partition: p, TS: w}})
	}
	return pushes
}

// fold computes the downstream watermark for one stream: the minimum over
// live parents (a replica set needs every member), or the maximum over
// paths when the parents are redundant routes into one service.
func (a *Aggregator) fold(s *aggStream) hlc.Timestamp {
	if a.redundant {
		var w hlc.Timestamp
		for _, ts := range s.parentAck {
			if ts > w {
				w = ts
			}
		}
		return w
	}
	w := hlc.Timestamp(1<<63 - 1)
	any := false
	for i, ts := range s.parentAck {
		if a.dead[i] {
			continue
		}
		any = true
		if ts < w {
			w = ts
		}
	}
	if !any {
		return s.acked // every parent dead: hold the watermark
	}
	return w
}

// push delivers queued watermark notifications, merged into one
// acknowledgement per child.
func (a *Aggregator) push(pushes []ackPush) {
	if len(pushes) == 0 {
		return
	}
	merged := make(map[Addr][]types.PartitionMark)
	for _, p := range pushes {
		merged[p.child] = append(merged[p.child], p.mark)
	}
	for child, marks := range merged {
		a.f.Send(a.local, child, MultiAckMsg{Acks: marks})
	}
}
