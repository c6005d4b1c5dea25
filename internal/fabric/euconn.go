package fabric

import (
	"errors"
	"sort"
	"sync"
	"time"

	"eunomia/internal/eunomia"
	"eunomia/internal/hlc"
	"eunomia/internal/types"
)

// This file adapts the partition↔Eunomia protocol — stream frames and
// their acknowledgement watermarks — onto a Fabric, so the same batching
// client (internal/eunomia.Client) runs over the in-process simulated WAN
// and over real TCP without knowing which.

// MultiBatchMsg is the stream frame: one flush of one or more partition
// streams, each entry a batch with its base and mark (types.PartitionBatch,
// Algorithm 4 lines 1-5 and Algorithm 3 line 5 in one message). A
// partition's conn sends one entry per flush; a §5 propagation-tree
// aggregator merges a whole fan-in set's streams into one frame, so a
// replica (or a parent aggregator) pays one message receive for all of
// them. Entries are ascending per partition.
type MultiBatchMsg struct {
	Batches []types.PartitionBatch
}

// MultiAckMsg acknowledges a MultiBatchMsg: one watermark per partition
// the frame mentioned, the largest timestamp the receiver now holds from
// that stream — the sender's resend window's lower bound. A non-empty Err
// reports a stopped replica.
type MultiAckMsg struct {
	Acks []types.PartitionMark
	Err  string
}

// ReplicaConn implements eunomia.Conn over a Fabric. It never waits:
// each flush's entry is streamed in one frame and each call returns the
// latest watermark the replica has acknowledged so far.
// Acknowledgements flow back asynchronously and advance the window; the
// client's resend-unacknowledged-suffix loop supplies at-least-once
// delivery and the replica deduplicates by watermark, so a flush never
// blocks on a round trip before the next batch can be sent. The owner of
// the local address must route incoming MultiAckMsg messages to
// HandleMessage.
type ReplicaConn struct {
	f             Fabric
	local, remote Addr

	mu    sync.Mutex
	marks map[types.PartitionID]hlc.Timestamp
	// sent is the highest timestamp already streamed per partition. The
	// client's flush loop re-offers the whole unacknowledged suffix every
	// interval; over a reliable ordered fabric each operation only needs
	// to travel once, so the conn trims what it has already sent instead
	// of amplifying every flush by ~RTT/interval duplicate copies. progress remembers when the
	// acknowledged watermark last moved (or the window was last resent):
	// if it stalls — a fabric that silently dropped the stream, e.g. a
	// route installed late — the trim is reset and the whole
	// unacknowledged window goes out again.
	sent     map[types.PartitionID]hlc.Timestamp
	progress map[types.PartitionID]time.Time
	failed   string // sticky remote failure
	// lastAlive is the last instant any acknowledgement arrived from the
	// remote; lastProbe rate-limits sends toward a silent one. A killed
	// peer process never errors — it just stops acknowledging — and a
	// networked fabric buffers frames toward it in a bounded window, so a
	// conn that kept streaming at a silent peer would eventually fill
	// that window and block the whole client in Send. Instead, once the
	// remote has been silent past peerSuspendAfter, the conn drops its
	// sends except for one probe (the full unacknowledged window) per
	// peerProbeEvery; any acknowledgement revives normal flow.
	lastAlive time.Time
	lastProbe time.Time
}

// resendAfter is how long the acknowledgement watermark may stall before
// a conn retransmits the unacknowledged window. Well above any sane RTT,
// well below human patience.
const resendAfter = 250 * time.Millisecond

// peerSuspendAfter is how long a remote may stay completely silent before
// a conn suspends normal sends toward it; peerProbeEvery is the probe
// rate while suspended. The probe budget must stay far below the
// transport's per-peer window divided by the longest plausible outage, or
// a dead peer would still wedge the sender.
const (
	peerSuspendAfter = 4 * resendAfter
	peerProbeEvery   = time.Second
)

var _ eunomia.Conn = (*ReplicaConn)(nil)

// NewReplicaConn builds a connection from local (a partition address) to
// remote (a replica address served by ServeReplica).
func NewReplicaConn(f Fabric, local, remote Addr) *ReplicaConn {
	return &ReplicaConn{
		f:         f,
		local:     local,
		remote:    remote,
		marks:     make(map[types.PartitionID]hlc.Timestamp),
		sent:      make(map[types.PartitionID]hlc.Timestamp),
		progress:  make(map[types.PartitionID]time.Time),
		lastAlive: time.Now(),
	}
}

// Remote returns the replica address this conn targets.
func (c *ReplicaConn) Remote() Addr { return c.remote }

// HandleMessage consumes an acknowledgement addressed to this conn,
// returning false for messages that belong to someone else. Duplicate
// acknowledgements (an at-least-once fabric may replay them) are harmless:
// the watermark is monotonic.
func (c *ReplicaConn) HandleMessage(m Message) bool {
	ack, ok := m.Payload.(MultiAckMsg)
	if !ok || m.From != c.remote {
		return false
	}
	now := time.Now()
	c.mu.Lock()
	c.lastAlive = now
	if ack.Err != "" {
		c.failed = ack.Err
	}
	for _, a := range ack.Acks {
		if a.TS > c.marks[a.Partition] {
			c.marks[a.Partition] = a.TS
			c.progress[a.Partition] = now
		}
	}
	c.mu.Unlock()
	return true
}

// Watermark returns the largest acknowledged timestamp for partition p.
func (c *ReplicaConn) Watermark(p types.PartitionID) hlc.Timestamp {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.marks[p]
}

// NewBatch implements eunomia.Conn. It sends one stream frame carrying
// b, trimmed of the operations already streamed, and returns the latest
// acknowledged watermark without waiting.
func (c *ReplicaConn) NewBatch(b types.PartitionBatch) (hlc.Timestamp, error) {
	p := b.Partition
	c.mu.Lock()
	failed, w, streamed := c.failed, c.marks[p], c.sent[p]
	if failed != "" {
		c.mu.Unlock()
		return 0, errors.New(failed)
	}
	now := time.Now()
	if now.Sub(c.lastAlive) > peerSuspendAfter {
		// The remote has gone completely silent (killed process, dead
		// route): stop feeding its bounded transport window. One probe
		// per peerProbeEvery — the full unacknowledged window — keeps
		// testing for revival; everything else is dropped and resent
		// once the peer acknowledges again.
		if now.Sub(c.lastProbe) < peerProbeEvery {
			c.mu.Unlock()
			return w, nil
		}
		c.lastProbe = now
		c.sent[p] = w
		streamed = w
		c.progress[p] = now
	} else if streamed > w {
		// Operations are in flight beyond the acknowledged watermark.
		// If acknowledgements have stalled, assume the stream was lost
		// (Send is fire-and-forget: a missing route drops silently) and
		// retransmit the unacknowledged window.
		if last, ok := c.progress[p]; !ok {
			c.progress[p] = now
		} else if now.Sub(last) > resendAfter {
			c.sent[p] = w
			streamed = w
			c.progress[p] = now
		}
	}
	c.mu.Unlock()
	// Trim the prefix already streamed: the fabric delivers it (FIFO,
	// retransmitted across reconnects), so only the fresh suffix needs
	// to go out, over a base the replica holds only if that prefix
	// arrived. A resend's streamed position is the acknowledged
	// watermark, which the replica holds.
	if start := sort.Search(len(b.Ops), func(i int) bool { return b.Ops[i].TS > streamed }); start > 0 {
		b.Ops = b.Ops[start:]
		b.Base = max(b.Base, streamed)
	}
	c.f.Send(c.local, c.remote, MultiBatchMsg{Batches: []types.PartitionBatch{b}})
	if n := len(b.Ops); n > 0 {
		c.mu.Lock()
		c.sent[p] = max(c.sent[p], b.Ops[n-1].TS)
		c.mu.Unlock()
	}
	return w, nil
}

// ServeReplica registers a handler at addr that feeds stream frames into
// the replica and returns acknowledgement watermarks to the sender:
// always the watermark the replica holds afterwards, never a refused
// entry's mark, or the sender would prune operations the replica never
// received. Unknown payloads are ignored, so the address can be shared
// with other protocols if needed.
func ServeReplica(f Fabric, at Addr, r *eunomia.Replica) {
	f.Register(at, func(m Message) {
		if v, ok := m.Payload.(MultiBatchMsg); ok {
			acks, err := r.NewMultiBatch(v.Batches)
			f.Send(at, m.From, MultiAckMsg{Acks: acks, Err: errString(err)})
		}
	})
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
