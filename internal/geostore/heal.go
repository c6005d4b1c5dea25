package geostore

// Payload healing: the pull/skip protocol the applier runs.
//
// A payload pruned at the origin — the shipper drops its buffered copy
// once the transport acknowledges delivery — and lost to a crash here
// (received after the last WAL flush) would park its release forever:
// nothing re-ships it. payloadHealer wraps the apply of the applier's
// stream head and heals such a park: it asks the origin to re-ship the
// exact version (PayloadPullMsg), or skips the update when the origin
// reports it superseded (PayloadSupersededMsg), since the superseding
// version follows in the release order with its own payload.
//
// Pulls are gated to crash evidence: only updates whose metadata arrived
// before this durable incarnation finished recovering may have lost their
// payload to the dead predecessor. Anything released later is ordinary
// replication lag and parks untouched — pulling it could transiently hide
// a slow update the moment its origin overwrites it.
//
// The applier never polls a park: the partition ingress wakes it when a
// payload lands, and the healer wakes it at each pull deadline, when a
// superseded verdict arrives, and once when its gate is armed.

import (
	"sync"
	"sync/atomic"
	"time"

	"eunomia/internal/fabric"
	"eunomia/internal/types"
)

// payloadHealer wraps the applier's apply with origin pulls for
// crash-suspect updates parked on a missing payload.
type payloadHealer struct {
	n *Node
	// wake retries the applier's parked apply.
	wake func()
	// pullBefore gates pulls to crash evidence: only updates whose
	// metadata arrived before this instant (recovery end plus slack for
	// metadata in flight at the crash) are suspects. Atomic because arm()
	// stamps it while the release path may already be calling apply;
	// until armed it is zero, which suspects nothing.
	pullBefore atomic.Int64

	mu sync.Mutex
	// skips holds suspects the origin reported superseded.
	skips map[types.UpdateID]bool
	// lastPull tracks each parked suspect and rate-limits its pull to the
	// release retransmission cadence.
	lastPull map[types.UpdateID]time.Time
	// timer wakes the release path at due, the earliest pull deadline of
	// a parked suspect; due is zero when no wake is pending.
	timer *time.Timer
	due   time.Time
}

func newPayloadHealer(n *Node, wake func()) *payloadHealer {
	return &payloadHealer{
		n:        n,
		wake:     wake,
		skips:    make(map[types.UpdateID]bool),
		lastPull: make(map[types.UpdateID]time.Time),
	}
}

// arm sets the crash-evidence gate once recovery has finished, and wakes
// the applier so updates it parked before get their first suspect pass.
// OpenNode calls it after every hosted role has replayed, not at
// construction: receiver replay re-stamps every recovered entry with the
// replay-time instant, so a gate stamped before a slow (>1s) replay would
// classify recovered crash suspects as live replication lag.
func (h *payloadHealer) arm() {
	h.pullBefore.Store(time.Now().Add(time.Second).UnixNano())
	h.wake()
}

// apply applies u at its responsible partition, healing a crash suspect's
// park by pulling the payload from the origin (or skipping the update
// when the origin reports it superseded). It reports false while u stays
// parked.
func (h *payloadHealer) apply(u *types.Update, metaArrived time.Time) bool {
	n := h.n
	pid := n.ring.Responsible(u.Key)
	part := n.parts[pid]
	applied := part.ApplyRemote(u, metaArrived)
	if metaArrived.UnixNano() >= h.pullBefore.Load() {
		return applied // not a suspect, so never tracked
	}
	id := u.ID()
	if applied {
		h.forget(id)
		return true
	}
	h.mu.Lock()
	if h.skips[id] {
		delete(h.skips, id)
		delete(h.lastPull, id)
		h.mu.Unlock()
		part.SkipRemote(u) // watermark advances, nothing stored
		return true
	}
	// The first park only starts the clock — replication may still
	// deliver; a pull goes out each retransmission interval after that.
	now := time.Now()
	last, seen := h.lastPull[id]
	pull := seen && now.Sub(last) >= releaseResendAfter
	if !seen || pull {
		h.lastPull[id], last = now, now
	}
	if due := last.Add(releaseResendAfter); h.due.IsZero() || due.Before(h.due) {
		h.due = due
		if h.timer == nil {
			h.timer = time.AfterFunc(time.Until(due), h.fire)
		} else {
			h.timer.Reset(time.Until(due))
		}
	}
	h.mu.Unlock()
	if pull {
		n.fab.Send(fabric.ApplierAddr(n.id), fabric.PartitionAddr(u.Origin, pid),
			PayloadPullMsg{Dest: n.id, U: u})
	}
	return false
}

// fire is the pull timer; the applies it wakes re-arm it.
func (h *payloadHealer) fire() {
	h.mu.Lock()
	h.due = time.Time{}
	h.mu.Unlock()
	h.wake()
}

// forget drops an update's healing state once it resolves.
func (h *payloadHealer) forget(id types.UpdateID) {
	h.mu.Lock()
	delete(h.skips, id)
	delete(h.lastPull, id)
	h.mu.Unlock()
}

// handle takes the origin's superseded verdicts (re-shipped payloads go to
// the partition address like any payload batch). A verdict for an update
// no longer tracked is stale — the payload arrived and applied while the
// verdict was in flight — and recording it would leak a skips entry
// nothing ever consumes.
func (h *payloadHealer) handle(msg fabric.Message) {
	sup, ok := msg.Payload.(PayloadSupersededMsg)
	if !ok {
		return
	}
	h.mu.Lock()
	_, tracked := h.lastPull[sup.ID]
	if tracked {
		h.skips[sup.ID] = true
	}
	h.mu.Unlock()
	if tracked {
		h.wake()
	}
}
