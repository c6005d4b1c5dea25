package geostore

// The receiver→partition release path.
//
// Every update a datacenter's receiver releases crosses the fabric to the
// partition group's applier before it becomes visible, whether the two
// run in one process (over the in-process fabric: the simnet link, or the
// transport's loopback) or in two. The original cross-process protocol
// performed one blocking round trip per update, which capped split-role
// deployments at ~1/RTT applies per origin (retired; DESIGN.md "Retired
// ablations"). The windowed protocol here removes the round trips while
// keeping the property the blocking path provided — the visible set at the
// partitions is always a causal prefix:
//
//   - The receiver releases updates into a bounded in-flight window
//     (releaseWindow): each release is assigned a dense per-stream
//     sequence number, and the releases of one receiver pass are streamed
//     as one run to the partition group's single applier endpoint
//     (fabric.ApplierAddr). One ordered endpoint pair means one FIFO
//     channel, so releases arrive in release order — which is the causal
//     order Algorithm 5 computed.
//   - The applier admits only the next expected sequence number (gaps wait
//     for the retransmit pass; duplicates are re-acknowledged and dropped)
//     and applies strictly in order. An update whose payload has not yet
//     arrived parks the stream head — nothing causally after it may become
//     visible anyway — until the payload lands at the partition, which
//     wakes the applier to retry.
//   - Acknowledgements are cumulative (ReleaseAckMsg carries the highest
//     sequence applied and the highest durably recorded) and flow back
//     asynchronously, pruning the window by the durable watermark. If
//     they stall — a dropped stream, a crashed-and-recovered link, a
//     route installed late — the window retransmits its whole
//     unacknowledged suffix in order, and the applier's sequence filter
//     makes the retransmission idempotent.
//   - When the partition group is down, the window fills and release()
//     blocks: the receiver's flush loop stalls with bounded memory in the
//     stream (its own per-origin queues keep absorbing shipped metadata,
//     exactly as before), and releases resume on reconnect. A partition
//     process restarted with a data dir replays its WALs, reports its
//     durable stream position, and the window rewinds to it (see
//     DESIGN.md "The durability model"); restarted without one, the
//     stream wedges loudly exactly as in PR 2.

import (
	"errors"
	"log"
	"sync"
	"time"

	"eunomia/internal/fabric"
	"eunomia/internal/hlc"
	"eunomia/internal/types"
	"eunomia/internal/wal"
)

// ReleaseMsg releases a run of updates to the partition group: Us[i] is
// the (Seq+i)-th release in the receiver's release order, and Arrived[i]
// its metadata arrival instant (UnixNano, for visibility metrics). Epoch
// identifies the sender incarnation: a restarted receiver process
// restarts Seq at 1, and without the epoch the applier would discard its
// whole stream as duplicates (while acking it as applied — fake success).
type ReleaseMsg struct {
	Epoch   uint64
	Seq     uint64
	Us      []*types.Update
	Arrived []int64
}

// release is one update of the stream, seq-th in release order.
type release struct {
	seq     uint64
	u       *types.Update
	arrived int64 // UnixNano
}

// ReleaseAckMsg is the applier's cumulative acknowledgement for one sender
// epoch: every release with Seq <= Cum has been applied, every release
// with Seq <= Durable has been applied AND recorded in the partition
// side's write-ahead logs, and every release with Seq <= Admitted has been
// received into the apply queue. The window prunes by Durable (so a
// partition-process crash can always be healed by retransmitting the
// retained un-durable suffix; a volatile applier reports Durable = Cum,
// restoring the original prune-on-apply behavior) and judges stream
// health by Admitted: a stream whose tail is admitted lost nothing and
// must not be retransmitted just because the applier is slow (e.g. parked
// on a payload that replication has not delivered yet). Acks from a
// different epoch are ignored by the window.
type ReleaseAckMsg struct {
	Epoch    uint64
	Cum      uint64
	Durable  uint64
	Admitted uint64
	// NeedReset reports that the applier is a fresh incarnation being
	// offered the middle of a stream it has not admitted into. Durable
	// carries the incarnation's recovered watermark: if the sender still
	// holds seq Durable+1 (it does whenever the applier persisted its
	// stream position, because the window prunes by durable acks), it
	// rewinds to the watermark and retransmits — a bounded resume. Only
	// when the sender has pruned past the watermark (the dead
	// incarnation ran without persisted state) is the stream
	// unrecoverable, and the sender wedges loudly instead of
	// retransmitting forever.
	NeedReset bool
}

const (
	// defaultReleaseWindow bounds in-flight (released but unacknowledged)
	// updates per receiver. Far below the transport's frame window, so the
	// release path backpressures on its own bound, never inside a fabric
	// Send.
	defaultReleaseWindow = 256
	// releaseResendAfter is how long acknowledgements may stall before the
	// window retransmits its unacknowledged suffix. Well above any sane
	// RTT, well below human patience.
	releaseResendAfter = 250 * time.Millisecond
	// releaseAckEvery caps how many applies the applier folds into one
	// cumulative acknowledgement while its queue stays non-empty.
	releaseAckEvery = 32
)

// releaseWindow is the sender half of the windowed release protocol,
// owned by the node that hosts RoleReceiver.
type releaseWindow struct {
	fab      fabric.Fabric
	from, to fabric.Addr
	limit    int
	// epoch identifies this window incarnation; the applier resets its
	// sequence state when it changes (receiver process restart).
	epoch uint64

	// onDurable, optional, observes each released update leaving the
	// window (durably applied at the partition side); the receiver node
	// feeds it into receiver.MarkDurable so a durable receiver's
	// persisted SiteTime only covers applies that can no longer be lost.
	onDurable func(*types.Update)
	// onAcked, optional, is called after an acknowledgement advanced the
	// acknowledged site watermark (ackedEntry).
	onAcked func()

	mu       sync.Mutex
	cond     *sync.Cond
	inflight []release // not durably acknowledged, ascending dense seq
	nextSeq  uint64
	// sent is the highest sequence handed to the fabric; the releases
	// above it wait in inflight for the end of the receiver's pass.
	sent uint64
	// progress is when the window last advanced (ack) or was last
	// retransmitted; a stall beyond releaseResendAfter triggers a resend.
	progress time.Time
	// lastAdmitted is the highest admission watermark seen; any advance
	// proves the stream is intact even while applies are parked.
	lastAdmitted uint64
	resent       int64
	// wedged records an unrecoverable stream (the partition process
	// restarted without persisted state); releases fail fast and
	// retransmission stops.
	wedged bool
	closed bool

	// ackedSite tracks, per origin, the highest origin-entry timestamp
	// among releases the applier has durably acknowledged — the
	// strongest "applied at the partitions" claim the sender can make.
	// The §4 migration wait answers from it: release() returns true on
	// admission into the window, so SiteTime runs ahead of the actual
	// applies, and a migrated read must not pass its visibility wait
	// while its causal history is still in flight to the applier.
	ackedSite map[types.DCID]hlc.Timestamp

	stop chan struct{}
}

func newReleaseWindow(fab fabric.Fabric, from, to fabric.Addr, limit int) *releaseWindow {
	if limit <= 0 {
		limit = defaultReleaseWindow
	}
	w := &releaseWindow{
		fab: fab, from: from, to: to, limit: limit,
		epoch:     uint64(time.Now().UnixNano()),
		ackedSite: make(map[types.DCID]hlc.Timestamp),
		stop:      make(chan struct{}),
	}
	w.cond = sync.NewCond(&w.mu)
	go w.resendLoop()
	return w
}

// release implements receiver.ApplyFunc: it admits the update into the
// window, blocking while the window is full; flush streams it out at the
// end of the receiver's pass. The optimistic true return advances
// SiteTime immediately; ordering is preserved because every subsequent
// release travels the same FIFO stream behind this one. A false return
// (window closed mid-shutdown, or the stream wedged) makes the receiver
// keep the update queued.
func (w *releaseWindow) release(u *types.Update, metaArrived time.Time) bool {
	w.mu.Lock()
	for !w.closed && !w.wedged && len(w.inflight) >= w.limit {
		if w.sent < w.nextSeq {
			// The acks that free the window need this pass's run out.
			w.sendLocked()
			continue
		}
		w.cond.Wait()
	}
	if w.closed || w.wedged {
		w.mu.Unlock()
		return false
	}
	w.nextSeq++
	if len(w.inflight) == 0 {
		// A fresh window starts its stall clock now, not at the last ack.
		w.progress = time.Now()
	}
	w.inflight = append(w.inflight, release{seq: w.nextSeq, u: u, arrived: metaArrived.UnixNano()})
	w.mu.Unlock()
	return true
}

// flush streams the releases admitted since the last flush as one run;
// the receiver calls it at the end of each pass.
func (w *releaseWindow) flush() {
	w.mu.Lock()
	if w.sent < w.nextSeq && !w.closed && !w.wedged {
		w.sendLocked()
	}
	w.mu.Unlock()
}

// sendLocked sends the unsent tail of the window as one run (w.mu held;
// released for the send and retaken). Send runs outside the lock: a
// networked fabric may block here under backpressure, and
// acknowledgements must still be able to prune the window meanwhile.
// Only the receiver's flush loop sends fresh runs, so they leave in
// sequence order; the rare race with a concurrent retransmit is healed
// by the applier's in-order admission.
func (w *releaseWindow) sendLocked() {
	unsent := min(int(w.nextSeq-w.sent), len(w.inflight))
	w.sent = w.nextSeq
	if unsent == 0 {
		return
	}
	m := w.runLocked(w.inflight[len(w.inflight)-unsent:])
	w.mu.Unlock()
	w.fab.Send(w.from, w.to, m)
	w.mu.Lock()
}

// runLocked builds the message carrying rels, consecutive releases.
func (w *releaseWindow) runLocked(rels []release) ReleaseMsg {
	m := ReleaseMsg{Epoch: w.epoch, Seq: rels[0].seq,
		Us: make([]*types.Update, len(rels)), Arrived: make([]int64, len(rels))}
	for i, r := range rels {
		m.Us[i], m.Arrived[i] = r.u, r.arrived
	}
	return m
}

// handleAck prunes the window up to the durable acknowledgement watermark.
// Progress (the retransmission stall clock) advances when applies
// advance, and also when the whole in-flight suffix is admitted — the
// stream is intact, the applier is just still working. A NeedReset from a
// restarted applier either rewinds the stream to the applier's durable
// watermark (bounded retransmit) or, when that watermark is below what
// the window has already pruned, wedges it for good.
func (w *releaseWindow) handleAck(ack ReleaseAckMsg) {
	if ack.Epoch != w.epoch {
		return // stale ack for a previous window incarnation
	}
	w.mu.Lock()
	if ack.NeedReset && !w.wedged && len(w.inflight) > 0 &&
		w.inflight[0].seq > 1 && w.inflight[0].seq > ack.Durable+1 {
		// A fresh applier incarnation is missing a prefix this window has
		// already pruned, and its durable watermark (nothing, or a dead
		// older epoch's) cannot bridge the gap: the lost prefix died with
		// the old incarnation. Fail loudly and stop retransmitting
		// instead of churning forever.
		w.wedged = true
		w.cond.Broadcast()
		w.mu.Unlock()
		log.Printf("geostore: release stream to %s lost: partition process restarted without usable durable state (resume watermark %d, oldest retained release %d); datacenter needs a full restart/resync", w.to, ack.Durable, w.inflight[0].seq)
		return
	}
	drop := 0
	for drop < len(w.inflight) && w.inflight[drop].seq <= ack.Durable {
		drop++
	}
	var durable []release
	if drop > 0 {
		for _, r := range w.inflight[:drop] {
			if ts := r.u.VTS.Get(int(r.u.Origin)); ts > w.ackedSite[r.u.Origin] {
				w.ackedSite[r.u.Origin] = ts
			}
		}
		if w.onDurable != nil {
			durable = append(durable, w.inflight[:drop]...)
		}
		w.inflight = append([]release(nil), w.inflight[drop:]...)
		w.cond.Broadcast()
	}
	// Progress: durability advanced, the whole in-flight suffix is
	// admitted, or the admission watermark moved at all — the latter
	// matters when the applier is parked but new releases keep extending
	// the tail, so a heartbeat's snapshot never quite covers it.
	if drop > 0 || len(w.inflight) == 0 ||
		ack.Admitted >= w.inflight[len(w.inflight)-1].seq || ack.Admitted > w.lastAdmitted {
		w.progress = time.Now()
	}
	if ack.Admitted > w.lastAdmitted {
		w.lastAdmitted = ack.Admitted
	}
	if ack.NeedReset {
		// Rewind accepted: the restarted applier resumes at its durable
		// watermark. Zero the stall clock so the resend loop retransmits
		// the suffix on its next tick instead of waiting out the stall.
		w.progress = time.Time{}
	}
	cb, acked := w.onDurable, w.onAcked
	w.mu.Unlock()
	if cb != nil {
		for _, r := range durable {
			cb(r.u)
		}
	}
	if drop > 0 && acked != nil {
		acked()
	}
}

// ackedEntry returns the highest durably acknowledged origin timestamp
// for origin k (zero before any ack of k's updates this incarnation; a
// restarted receiver's baseline is the receiver's persisted durable
// watermark, which the migration wait merges in).
func (w *releaseWindow) ackedEntry(k types.DCID) hlc.Timestamp {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ackedSite[k]
}

// resendLoop retransmits the unacknowledged suffix when acknowledgements
// stall, restoring the stream after drops or outages. It exits on close
// without being joined: a retransmit Send may sit in fabric backpressure
// until the owner closes the fabric (same contract as shipQueue).
func (w *releaseWindow) resendLoop() {
	ticker := time.NewTicker(releaseResendAfter / 4)
	defer ticker.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-ticker.C:
		}
		w.mu.Lock()
		if w.wedged || len(w.inflight) == 0 || time.Since(w.progress) < releaseResendAfter {
			w.mu.Unlock()
			continue
		}
		m := w.runLocked(w.inflight)
		w.sent = w.nextSeq
		w.progress = time.Now()
		w.resent += int64(len(w.inflight))
		w.mu.Unlock()
		w.fab.Send(w.from, w.to, m)
	}
}

// inflightLen reports the current window occupancy (tests).
func (w *releaseWindow) inflightLen() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.inflight)
}

// resentCount reports how many releases were retransmitted (tests).
func (w *releaseWindow) resentCount() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.resent
}

// isWedged reports whether the stream was declared unrecoverable.
func (w *releaseWindow) isWedged() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.wedged
}

// close signals shutdown: blocked release calls return false. It does not
// wait for the resend goroutine, which may sit in fabric backpressure
// until the owner closes the fabric (same contract as shipQueue).
func (w *releaseWindow) close() {
	w.mu.Lock()
	if !w.closed {
		w.closed = true
		close(w.stop)
		w.cond.Broadcast()
	}
	w.mu.Unlock()
}

// applier is the receiving half: the single ordered ingress a
// partition-hosting node of a multi-DC deployment exposes to its
// datacenter's receiver. One worker applies releases strictly in sequence
// order.
type applier struct {
	node *Node
	from fabric.Addr // our address (acks originate here)
	// stream, optional, persists the durably applied (epoch, seq)
	// watermark: durTracker records a position only once the partition
	// WALs cover every apply below it, so the watermark never claims
	// applies the partitions could still lose. A recovered applier
	// resumes mid-stream from it instead of forcing a wedge.
	stream *wal.Store

	// healer wraps the head's apply with the payload pull/skip protocol.
	// OpenNode arms its gate only on a durable node: a volatile applier
	// has no recovered predecessor whose crash could have lost a
	// payload, so it parks until the payload arrives.
	healer *payloadHealer
	// wake (1-slot) rouses the worker, idle or parked: an admission, an
	// epoch reset, a payload landing at a hosted partition, or a healer
	// wake.
	wake chan struct{}

	mu sync.Mutex
	q  []release // admitted, contiguous, awaiting apply
	// epoch is the sender incarnation the sequence state below belongs
	// to; a new epoch (restarted receiver process) resets it.
	epoch uint64
	// enq is the highest sequence admitted (tail of q); applied is the
	// highest applied; durable is the highest durably recorded. applied
	// == enq when the queue is empty.
	enq, applied, durable uint64
	// fresh marks an incarnation that has not admitted anything yet: a
	// gap offered to it is a stream position question (answered with
	// NeedReset + the durable watermark), not a drop.
	fresh    bool
	sinceAck int
	// lastResetAck rate-limits NeedReset replies during a retransmit
	// burst aimed at a dead predecessor's stream position.
	lastResetAck time.Time
	closed       bool

	// dur, set with a stream store, retires the durability barriers left
	// at ack points in the background: Cum keeps streaming at apply
	// speed, Durable advances as the partition WALs reach disk.
	dur *durTracker

	// batchUs/batchAt are the worker's reusable scratch for gathering a
	// same-partition run of releases into one batched apply.
	batchUs []*types.Update
	batchAt []time.Time

	stop chan struct{}
}

// newApplier builds the applier; start runs it.
func newApplier(n *Node) *applier {
	a := &applier{node: n, from: fabric.ApplierAddr(n.id), fresh: true,
		wake: make(chan struct{}, 1), stop: make(chan struct{})}
	a.healer = newPayloadHealer(n, a.kick)
	return a
}

// start runs the applier, resuming from the stream store's recovered
// watermark when one is configured (the caller replays the partition WALs
// first, so "durably applied" state is already in the partitions when the
// stream position claims it).
func (a *applier) start(stream *wal.Store) error {
	a.stream = stream
	if stream != nil {
		err := stream.Replay(func(rec []byte) error {
			epoch, seq, err := wal.DecodeStream(rec)
			if err != nil {
				return err
			}
			if epoch > a.epoch || (epoch == a.epoch && seq > a.durable) {
				a.epoch, a.durable = epoch, seq
			}
			return nil
		})
		if err != nil {
			return err
		}
		a.enq, a.applied = a.durable, a.durable
		a.dur = newDurTracker(a, a.node.partStores, stream)
	}
	go a.run()
	return nil
}

// kick wakes the worker; kicks coalesce.
func (a *applier) kick() {
	select {
	case a.wake <- struct{}{}:
	default:
	}
}

// ackLocked is the cumulative acknowledgement of the current stream
// state (a.mu held). A volatile applier advertises its applies as
// prunable: it has nothing a restart could resume from.
func (a *applier) ackLocked() ReleaseAckMsg {
	dur := a.durable
	if a.stream == nil {
		dur = a.applied
	}
	return ReleaseAckMsg{Epoch: a.epoch, Cum: a.applied, Durable: dur, Admitted: a.enq}
}

// handle is the fabric handler for the applier endpoint: the release
// stream, and the origin's superseded verdicts for the healer.
func (a *applier) handle(msg fabric.Message) {
	m, ok := msg.Payload.(ReleaseMsg)
	if !ok {
		a.healer.handle(msg)
		return
	}
	a.mu.Lock()
	if m.Epoch < a.epoch {
		// A leftover frame from a dead incarnation delivered late (its
		// connection outlived it): it must not touch the live successor's
		// stream state. Epochs are start timestamps, so newer incarnations
		// always compare greater (a successor on a machine whose clock is
		// behind by more than the restart gap is out of the paper's
		// loosely-synchronized-clocks model).
		a.mu.Unlock()
		return
	}
	if m.Epoch > a.epoch {
		// New sender incarnation: its stream restarts at sequence 1.
		// Entries of the dead incarnation are abandoned — updates that
		// still matter are re-released by the successor (and re-applies
		// are idempotent: partitions dedup by origin timestamp).
		a.epoch = m.Epoch
		a.q = nil
		a.enq, a.applied, a.durable, a.sinceAck = 0, 0, 0, 0
		a.fresh = true
		if a.dur != nil {
			// A pending barrier belongs to the dead incarnation's sequence
			// space; recording its stream position now would corrupt the
			// successor's.
			a.dur.reset()
		}
		a.kick() // a worker parked on the abandoned head moves on
	}
	if len(m.Us) == 0 {
		a.mu.Unlock()
		return
	}
	last := m.Seq + uint64(len(m.Us)) - 1
	switch {
	case last <= a.enq:
		// Duplicate (a retransmission overlap): drop it. Only a run
		// ending at the tail re-acknowledges — one coalesced ack per
		// retransmit pass, since Sends here run on the fabric delivery
		// goroutine.
		if last != a.enq {
			a.mu.Unlock()
			return
		}
		ack := a.ackLocked()
		a.mu.Unlock()
		a.node.fab.Send(a.from, msg.From, ack)
		return
	case m.Seq > a.enq+1:
		// Gap: something before it was dropped. The sender retransmits
		// the whole unacknowledged suffix in order, so normally just
		// wait — but a gap at a fresh incarnation (nothing admitted yet)
		// is a stream position question: answer with NeedReset and the
		// durable watermark recovered from the stream WAL, so the sender
		// rewinds there and resumes — or wedges, if it has already
		// pruned past it (the predecessor ran without durable state).
		if a.fresh && time.Since(a.lastResetAck) >= time.Second {
			a.lastResetAck = time.Now()
			ack := a.ackLocked()
			ack.NeedReset = true
			a.mu.Unlock()
			a.node.fab.Send(a.from, msg.From, ack)
			return
		}
		a.mu.Unlock()
		return
	}
	for i := a.enq + 1 - m.Seq; i < uint64(len(m.Us)); i++ {
		a.q = append(a.q, release{seq: m.Seq + i, u: m.Us[i], arrived: m.Arrived[i]})
	}
	a.enq = last
	a.fresh = false
	a.mu.Unlock()
	a.kick()
}

// run applies admitted releases in order, parking on a missing payload
// until replication delivers it, and returns cumulative acknowledgements.
// Like resendLoop it exits on close without being joined: an ack Send may
// sit in fabric backpressure until the owner closes the fabric.
func (a *applier) run() {
	n := a.node
	for {
		a.mu.Lock()
		if a.closed {
			a.mu.Unlock()
			return
		}
		if len(a.q) == 0 {
			a.mu.Unlock()
			select {
			case <-a.stop:
				return
			case <-a.wake:
			}
			continue
		}
		head := a.q[0]
		// Gather the contiguous run behind head addressed to the same
		// partition: a causally ordered run applies as one batch — one
		// payload-resolution pass, one shard-lock round, buffered WAL
		// appends — instead of one full apply cycle per release.
		pid := n.ring.Responsible(head.u.Key)
		a.batchUs = append(a.batchUs[:0], head.u)
		a.batchAt = append(a.batchAt[:0], time.Unix(0, head.arrived))
		for i := 1; i < len(a.q) && i < releaseAckEvery; i++ {
			r := a.q[i]
			if n.ring.Responsible(r.u.Key) != pid {
				break
			}
			a.batchUs = append(a.batchUs, r.u)
			a.batchAt = append(a.batchAt, time.Unix(0, r.arrived))
		}
		a.mu.Unlock()

		applied := 0
		if len(a.batchUs) > 1 {
			applied = n.parts[pid].ApplyRemoteBatch(a.batchUs, a.batchAt)
		}
		if applied == 0 {
			// Head could not apply cleanly (or the run was a single
			// release): fall back to the single-head park, which runs the
			// payload pull/skip protocol.
			if !a.applyHead(head) {
				return // closed while parked
			}
			applied = 1
		}

		a.mu.Lock()
		if len(a.q) == 0 || a.q[0] != head {
			// The queue was reset (new sender epoch) while this entry was
			// being applied; its bookkeeping died with the old epoch.
			a.mu.Unlock()
			continue
		}
		if applied > len(a.q) {
			applied = len(a.q) // defensive; runs never outgrow the queue
		}
		last := a.q[applied-1]
		a.q = a.q[applied:]
		if len(a.q) == 0 {
			a.q = nil
		}
		a.applied = last.seq
		a.sinceAck += applied
		ack := len(a.q) == 0 || a.sinceAck >= releaseAckEvery
		if ack {
			a.sinceAck = 0
		}
		cum, adm, ep := a.applied, a.enq, a.epoch
		a.mu.Unlock()
		if !ack {
			continue
		}
		// A volatile applier advertises its applies as prunable. A durable
		// one acknowledges Cum now and leaves a durability barrier behind;
		// Durable advances in a fresh ack once the partition WALs cover it.
		dur := cum
		if a.dur != nil {
			dur = a.dur.note(ep, cum)
		}
		n.fab.Send(a.from, fabric.ReceiverAddr(n.id), ReleaseAckMsg{Epoch: ep, Cum: cum, Durable: dur, Admitted: adm})
	}
}

// applyHead applies the stream head through the payload healer. While
// the payload is missing it parks — in-order release means nothing behind
// the head may become visible first — until a wake says the apply may
// now succeed: the payload landed at the partition, the healer has news,
// or an epoch reset replaced the queue. Meanwhile a timer heartbeats the
// admission watermark, so the sender knows the stream is intact and does
// not retransmit it. Reports false when the applier closed while parked.
func (a *applier) applyHead(head release) bool {
	at := time.Unix(0, head.arrived)
	var beat *time.Ticker
	for !a.healer.apply(head.u, at) {
		if beat == nil {
			beat = time.NewTicker(releaseResendAfter / 2)
			defer beat.Stop()
		}
		if !a.park(beat.C) {
			return false
		}
		a.mu.Lock()
		stale := len(a.q) == 0 || a.q[0] != head
		a.mu.Unlock()
		if stale {
			a.healer.forget(head.u.ID()) // its successor re-releases it if needed
			break
		}
	}
	return true
}

// park waits for a wake, sending the admission heartbeat on each beat.
// Reports false when the applier closed.
func (a *applier) park(beat <-chan time.Time) bool {
	for {
		select {
		case <-a.stop:
			return false
		case <-a.wake:
			return true
		case <-beat:
			a.mu.Lock()
			ack := a.ackLocked()
			a.mu.Unlock()
			a.node.fab.Send(a.from, fabric.ReceiverAddr(a.node.id), ack)
		}
	}
}

// pending reports admitted-but-unapplied releases (tests).
func (a *applier) pending() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.q)
}

// durableSeq reports the durably recorded stream sequence.
func (a *applier) durableSeq() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.durable
}

// close stops the worker. Like releaseWindow.close it only signals; a
// worker blocked in a backpressured ack Send is released when the owner
// closes the fabric.
func (a *applier) close() {
	a.mu.Lock()
	if !a.closed {
		a.closed = true
		close(a.stop)
	}
	a.mu.Unlock()
}

// durTracker is the durability pipeline behind a durable applier's
// acknowledgements, under either WAL policy. At each ack point the
// applier drops a durability barrier (the partition-store LSNs its
// applies reached) and keeps applying; this worker waits for the
// partition WALs to cover the barrier — the group committers make them
// durable under SyncGroupCommit, the node's flush loop under SyncOnFlush
// — then durably records the stream position that vouches for it (the
// two-phase order that keeps a recovered stream position from ever
// claiming applies a partition crash lost), and advertises the advance
// with a fresh ack. Durable thus lags Cum by at most a group commit or a
// flush-loop tick, while the apply path never blocks on the disk.
type durTracker struct {
	a      *applier
	parts  []*wal.Store
	stream *wal.Store
	poke   chan struct{}

	mu sync.Mutex
	// barrier is the newest pending barrier. Durability is cumulative
	// along the stream, so a new barrier supersedes an unretired older
	// one — retiring only the newest is both correct and cheaper.
	barrier *durBarrier
}

// durBarrier snapshots where every partition store's appended watermark
// stood once every apply at or below stream position (epoch, seq) had
// issued its WAL record.
type durBarrier struct {
	epoch, seq uint64
	lsns       []uint64
}

func newDurTracker(a *applier, parts []*wal.Store, stream *wal.Store) *durTracker {
	d := &durTracker{a: a, parts: parts, stream: stream, poke: make(chan struct{}, 1)}
	wake := func(uint64) {
		// Runs with the log's lock held (see Log.OnCommit): poke and go.
		select {
		case d.poke <- struct{}{}:
		default:
		}
	}
	for _, st := range parts {
		st.OnCommit(wake)
	}
	go d.run()
	return d
}

// note records a barrier at stream position (epoch, seq) — every apply at
// or below seq has issued its partition WAL append — and returns the
// current durable watermark for the ack that goes out meanwhile.
func (d *durTracker) note(epoch, seq uint64) uint64 {
	b := &durBarrier{epoch: epoch, seq: seq, lsns: make([]uint64, len(d.parts))}
	for i, st := range d.parts {
		b.lsns[i] = st.AppendedLSN()
	}
	d.mu.Lock()
	d.barrier = b
	d.mu.Unlock()
	select {
	case d.poke <- struct{}{}:
	default:
	}
	d.a.mu.Lock()
	dur := d.a.durable
	d.a.mu.Unlock()
	return dur
}

// reset drops a pending barrier whose sender incarnation died.
func (d *durTracker) reset() {
	d.mu.Lock()
	d.barrier = nil
	d.mu.Unlock()
}

// run retires barriers: poked by every partition WAL commit (and every
// note), it checks coverage and, once the applies are all on disk, records
// the stream position and advances the advertised watermark. Like the
// applier worker it exits on close without being joined; a Send may sit in
// fabric backpressure until the owner closes the fabric.
func (d *durTracker) run() {
	for {
		select {
		case <-d.a.stop:
			return
		case <-d.poke:
		}
		d.mu.Lock()
		b := d.barrier
		d.mu.Unlock()
		if b == nil || !d.covered(b) {
			continue // the commit that completes coverage pokes again
		}
		d.mu.Lock()
		if d.barrier == b {
			d.barrier = nil
		}
		d.mu.Unlock()
		// Phase two: the applies are durable; record the stream position
		// that vouches for them. Under SyncGroupCommit the Append waits
		// for its commit and the Flush finds nothing left to sync; under
		// SyncOnFlush the Flush is the one fsync. Either blocks only the
		// tracker.
		err := d.stream.Append(wal.EncodeStream(b.epoch, b.seq))
		if err == nil {
			err = d.stream.Flush()
		}
		if err != nil {
			d.fail("release stream WAL write", err)
			return
		}
		d.a.completeDurable(b.epoch, b.seq)
		if _, err := d.stream.MaybeSnapshot(4096, func(emit func([]byte) error) error {
			return emit(wal.EncodeStream(b.epoch, b.seq))
		}); err != nil {
			d.fail("release stream snapshot", err)
			return
		}
	}
}

// fail stops the tracker on a stream store failure: Durable stops
// advancing, and anything but a shutdown becomes the node's sticky
// durability error, as a failed flush loop does.
func (d *durTracker) fail(what string, err error) {
	if !errors.Is(err, wal.ErrClosed) {
		d.a.node.failFlush(what, err)
	}
}

// covered reports whether every partition store's durable watermark has
// reached the barrier.
func (d *durTracker) covered(b *durBarrier) bool {
	for i, st := range d.parts {
		if st.DurableLSN() < b.lsns[i] {
			return false
		}
	}
	return true
}

// completeDurable advances the durable watermark after the async pipeline
// recorded the stream position, and advertises it immediately: the sender
// prunes its window by Durable, so this ack is what converts background
// group commits into released window slots.
func (a *applier) completeDurable(epoch, seq uint64) {
	a.mu.Lock()
	if a.closed || a.epoch != epoch || seq <= a.durable {
		a.mu.Unlock()
		return
	}
	a.durable = seq
	cum, dur, adm := a.applied, a.durable, a.enq
	a.mu.Unlock()
	a.node.fab.Send(a.from, fabric.ReceiverAddr(a.node.id), ReleaseAckMsg{Epoch: epoch, Cum: cum, Durable: dur, Admitted: adm})
}
