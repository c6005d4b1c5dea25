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

// This file adapts the partition↔Eunomia protocol — metadata batches,
// heartbeats, and acknowledgement watermarks — onto a Fabric, so the same
// batching client (internal/eunomia.Client) runs over the in-process
// simulated WAN and over real TCP without knowing which.

// BatchMsg carries one partition's metadata batch to a replica
// (Algorithm 4 lines 1-5). ID is echoed in the acknowledgement; the
// acknowledgement's watermark is cumulative, so ReplicaConn leaves it 0.
type BatchMsg struct {
	ID        uint64
	Partition types.PartitionID
	Ops       []*types.Update
}

// HeartbeatMsg offers a partition's watermark TS without an operation
// (Algorithm 3 line 5). It travels right behind the batch of the same
// flush, and the replica adopts it only if it already holds the stream
// up to Base, that batch's last operation (0: nothing was unacknowledged).
type HeartbeatMsg struct {
	ID        uint64
	Partition types.PartitionID
	TS        hlc.Timestamp
	Base      hlc.Timestamp
}

// AckMsg is the replica's acknowledgement: the watermark is the largest
// timestamp the replica now holds from the partition — the resend window's
// lower bound. A non-empty Err reports a stopped replica.
type AckMsg struct {
	ID        uint64
	Partition types.PartitionID
	Watermark hlc.Timestamp
	Err       string
}

// MultiBatchMsg is the propagation-tree hop (§5): many partitions' batches
// — and any heartbeats the tree is relaying — merged into one type-tagged
// frame, so a replica (or a parent aggregator) pays one message receive
// for a whole fan-in set's streams. Batches are ascending per partition;
// Marks carry relayed heartbeats.
type MultiBatchMsg struct {
	ID      uint64
	Batches []types.PartitionBatch
	Marks   []types.PartitionMark
}

// MultiAckMsg acknowledges a MultiBatchMsg: one watermark per partition
// the frame mentioned, with the same semantics as AckMsg.Watermark. A
// non-empty Err reports a stopped replica.
type MultiAckMsg struct {
	ID   uint64
	Acks []types.PartitionMark
	Err  string
}

// ReplicaConn implements eunomia.Conn over a Fabric. It never waits:
// batches are streamed and each call returns the latest watermark the
// replica has acknowledged so far. Acknowledgements flow back
// asynchronously and advance the window; the client's
// resend-unacknowledged-suffix loop supplies at-least-once delivery and
// the replica deduplicates by watermark, so a flush never blocks on a
// round trip before the next batch can be sent. The owner of the local
// address must route incoming AckMsg messages to HandleMessage.
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
	ack, ok := m.Payload.(AckMsg)
	if !ok || m.From != c.remote {
		return false
	}
	c.mu.Lock()
	c.lastAlive = time.Now()
	if ack.Err == "" {
		if ack.Watermark > c.marks[ack.Partition] {
			c.marks[ack.Partition] = ack.Watermark
			c.progress[ack.Partition] = time.Now()
		}
	} else {
		c.failed = ack.Err
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

func (c *ReplicaConn) send(payload any) { c.f.Send(c.local, c.remote, payload) }

// NewBatch implements eunomia.Conn.
func (c *ReplicaConn) NewBatch(p types.PartitionID, ops []*types.Update) (hlc.Timestamp, error) {
	c.mu.Lock()
	failed, w, streamed := c.failed, c.marks[p], c.sent[p]
	now := time.Now()
	if failed == "" && now.Sub(c.lastAlive) > peerSuspendAfter {
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
	} else if failed == "" && streamed > w {
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
	if failed != "" {
		return 0, errors.New(failed)
	}
	// Trim the prefix already streamed: the fabric delivers it (FIFO,
	// retransmitted across reconnects), so only the fresh suffix needs
	// to go out.
	start := sort.Search(len(ops), func(i int) bool { return ops[i].TS > streamed })
	if start < len(ops) {
		c.send(BatchMsg{Partition: p, Ops: ops[start:]})
		c.mu.Lock()
		if last := ops[len(ops)-1].TS; last > c.sent[p] {
			c.sent[p] = last
		}
		c.mu.Unlock()
	}
	return w, nil
}

// Heartbeat implements eunomia.Conn. The mark follows the flush's batch
// on the same FIFO stream, so the replica can adopt it in the same round;
// the returned watermark is the latest acknowledged.
func (c *ReplicaConn) Heartbeat(p types.PartitionID, base, ts hlc.Timestamp) (hlc.Timestamp, error) {
	c.mu.Lock()
	failed, w := c.failed, c.marks[p]
	drop := false
	if failed == "" {
		if now := time.Now(); now.Sub(c.lastAlive) > peerSuspendAfter {
			// Same suspension as NewBatch: heartbeats fire every flush,
			// and a silent peer's transport window must not absorb them
			// all. A heartbeat makes a fine probe, so one goes through
			// per peerProbeEvery; heartbeats are regenerated each flush,
			// so the dropped ones cost nothing.
			if now.Sub(c.lastProbe) < peerProbeEvery {
				drop = true
			} else {
				c.lastProbe = now
			}
		}
	}
	c.mu.Unlock()
	if failed != "" {
		return 0, errors.New(failed)
	}
	if !drop {
		c.send(HeartbeatMsg{Partition: p, TS: ts, Base: base})
	}
	return w, nil
}

// ServeReplica registers a handler at addr that feeds batches, merged
// propagation-tree frames, and heartbeats into the replica and returns
// acknowledgement watermarks to the sender: always the watermark the
// replica holds afterwards, never a refused mark's, or the sender would
// prune operations the replica never received. Unknown payloads are
// ignored, so the address can be shared with other protocols if needed.
func ServeReplica(f Fabric, at Addr, r *eunomia.Replica) {
	f.Register(at, func(m Message) {
		switch v := m.Payload.(type) {
		case BatchMsg:
			w, err := r.NewBatch(v.Partition, v.Ops)
			f.Send(at, m.From, AckMsg{ID: v.ID, Partition: v.Partition, Watermark: w, Err: errString(err)})
		case HeartbeatMsg:
			w, err := r.Heartbeat(v.Partition, v.Base, v.TS)
			f.Send(at, m.From, AckMsg{ID: v.ID, Partition: v.Partition, Watermark: w, Err: errString(err)})
		case MultiBatchMsg:
			// The propagation-tree root: one message receive ingests a
			// whole fan-in set's streams, plus any heartbeats the tree
			// relayed. An aggregator relays a mark only once its parents
			// hold the mark's base, so a relayed mark can never mask a
			// buffered operation and needs no base of its own (see the
			// aggregator's contract).
			acks, err := r.NewMultiBatch(v.Batches)
			if err == nil {
				for _, hb := range v.Marks {
					switch w, hbErr := r.Heartbeat(hb.Partition, 0, hb.TS); {
					case hbErr == nil:
						acks = append(acks, types.PartitionMark{Partition: hb.Partition, TS: w})
					case errors.Is(hbErr, eunomia.ErrUnknownPartition):
						// One misconfigured sender's heartbeat must not
						// poison the merged frame; skip it, like
						// NewMultiBatch skips its stream.
					default:
						err = hbErr
					}
					if err != nil {
						break
					}
				}
			}
			f.Send(at, m.From, MultiAckMsg{ID: v.ID, Acks: acks, Err: errString(err)})
		}
	})
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
