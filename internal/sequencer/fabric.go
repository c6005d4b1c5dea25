package sequencer

// Fabric adaptation of the sequencer protocol: the one-number-per-request
// round trip every partition performs is exactly the interaction the
// baseline exists to measure, so over a real network it is carried as a
// genuine request/response exchange — NextMsg out, NextAckMsg back — with
// no pipelining. ServeFabric exposes a Service at an address; Remote is
// the client partitions use when the sequencer runs in another process.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"eunomia/internal/fabric"
)

// NextMsg requests the next sequence number. ID correlates the reply.
type NextMsg struct {
	ID uint64
}

// NextAckMsg returns an assigned sequence number (or a service error).
// Epoch identifies the service incarnation: the counter lives in memory,
// so numbers from different incarnations do not share a total order.
type NextAckMsg struct {
	ID    uint64
	N     uint64
	Epoch uint64
	Err   string
}

// ErrTimeout is returned by Remote.Next when no reply arrives in time;
// callers treat the service as failed for that request.
var ErrTimeout = errors.New("sequencer: remote sequencer timeout")

// ErrRestarted is returned once a reply from a different service
// incarnation is observed: the in-memory counter restarted, its numbers
// collide with ones already issued, and the datacenter's total order is
// unrecoverable — the honest failure mode of the paper's
// non-fault-tolerant sequencer (Figure 3's chain variant exists exactly
// to avoid it).
var ErrRestarted = errors.New("sequencer: remote service restarted and lost its counter; datacenter total order is broken")

// ServeFabric registers svc's number dispenser at the given address.
// Requests are answered from their own goroutines: the service itself
// serializes assignment internally, and replies must not block the
// fabric's delivery goroutine for the duration of an emulated round trip.
func ServeFabric(f fabric.Fabric, at fabric.Addr, svc Service) {
	epoch := uint64(time.Now().UnixNano())
	f.Register(at, func(m fabric.Message) {
		req, ok := m.Payload.(NextMsg)
		if !ok {
			return
		}
		from := m.From
		go func() {
			n, err := svc.Next()
			ack := NextAckMsg{ID: req.ID, N: n, Epoch: epoch}
			if err != nil {
				ack.Err = err.Error()
			}
			f.Send(at, from, ack)
		}()
	})
}

// Remote consults a sequencer served elsewhere on the fabric, one
// blocking round trip per Next call — the synchronous hop §2 charges the
// sequencer design for, now paid over a real channel.
type Remote struct {
	f             fabric.Fabric
	local, remote fabric.Addr
	timeout       time.Duration
	// abandoned observes sequence numbers that were allocated by the
	// service but whose reply arrived after the caller gave up. The
	// number exists server-side, so a dense-order consumer (the
	// propagator) must be told to skip it or it would wait forever.
	abandoned func(n uint64)

	// sendQ feeds the single sender goroutine. One goroutine owns every
	// fabric Send, so an outage parks exactly one goroutine in transport
	// backpressure while the bounded queue absorbs (then fails) callers —
	// never one blocked goroutine per call.
	sendQ  chan uint64
	stopCh chan struct{}

	mu      sync.Mutex
	nextID  uint64
	waiters map[uint64]chan NextAckMsg // nil value = timed-out tombstone
	// epoch is the service incarnation whose numbers this client has been
	// consuming (0 until the first reply); a reply from any other
	// incarnation makes the client fail permanently (ErrRestarted).
	epoch     uint64
	restarted bool
	stopped   bool
}

var _ Service = (*Remote)(nil)

// NewRemote builds a remote sequencer client and registers its reply
// endpoint at local. timeout bounds each round trip; non-positive
// selects 10s. abandoned (optional) is told about numbers whose reply
// outlived the caller's patience.
func NewRemote(f fabric.Fabric, local, remote fabric.Addr, timeout time.Duration, abandoned func(n uint64)) *Remote {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	r := &Remote{
		f:         f,
		local:     local,
		remote:    remote,
		timeout:   timeout,
		abandoned: abandoned,
		sendQ:     make(chan uint64, 256),
		stopCh:    make(chan struct{}),
		waiters:   make(map[uint64]chan NextAckMsg),
	}
	f.Register(local, r.handle)
	go r.sendLoop()
	return r
}

// sendLoop is the only goroutine that performs fabric Sends; it may sit
// in backpressure against a down sequencer process until the fabric
// closes (signal-only shutdown, like the geostore stream goroutines).
func (r *Remote) sendLoop() {
	for {
		select {
		case id := <-r.sendQ:
			r.f.Send(r.local, r.remote, NextMsg{ID: id})
		case <-r.stopCh:
			return
		}
	}
}

func (r *Remote) handle(m fabric.Message) {
	ack, ok := m.Payload.(NextAckMsg)
	if !ok {
		return
	}
	r.mu.Lock()
	if ack.Err == "" {
		if r.epoch == 0 {
			r.epoch = ack.Epoch
		}
		if ack.Epoch != r.epoch {
			// A different incarnation answered: its counter restarted, so
			// this number collides with ones already woven into the
			// dense shipping order. Poison the client rather than wedge
			// silently.
			r.restarted = true
			ack.Err = ErrRestarted.Error()
		}
	}
	ch, present := r.waiters[ack.ID]
	if present {
		delete(r.waiters, ack.ID)
	}
	r.mu.Unlock()
	if !present {
		return // duplicate reply
	}
	if ch != nil {
		ch <- ack
		return
	}
	// Tombstone: the caller timed out, but the service did allocate this
	// number — surface it so the dense propagation order can skip it.
	if ack.Err == "" && r.abandoned != nil {
		r.abandoned(ack.N)
	}
}

// Next implements Service.
func (r *Remote) Next() (uint64, error) {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return 0, ErrStopped
	}
	if r.restarted {
		r.mu.Unlock()
		return 0, ErrRestarted
	}
	r.nextID++
	id := r.nextID
	ch := make(chan NextAckMsg, 1)
	r.waiters[id] = ch
	r.mu.Unlock()

	// Hand the send to the dedicated sender goroutine so the timeout
	// bounds the whole round trip: a networked fabric's Send blocks
	// under backpressure when the sequencer process is down, and that
	// wait must not hang the caller past its deadline. A frame that sits
	// out the outage in the queue or the transport window is delivered
	// on reconnect; the service's late reply then lands on this call's
	// tombstone and the number is reported abandoned.
	timer := time.NewTimer(r.timeout)
	defer timer.Stop()
	select {
	case r.sendQ <- id:
	case <-timer.C:
		// Never sent: no number can have been allocated, so plain
		// forgetting is safe (no tombstone needed).
		r.forget(id)
		return 0, fmt.Errorf("%w (%s: send queue full)", ErrTimeout, r.remote)
	}

	select {
	case ack := <-ch:
		if ack.Err != "" {
			return 0, errors.New(ack.Err)
		}
		return ack.N, nil
	case <-timer.C:
		// Leave a tombstone instead of forgetting the call: the reply may
		// still arrive (a reliable fabric retransmits across outages),
		// carrying a number that was genuinely allocated and must be
		// reported abandoned. If the service died the tombstone leaks —
		// one map entry per timed-out call, reclaimed on Stop.
		r.mu.Lock()
		_, present := r.waiters[id]
		if present {
			r.waiters[id] = nil
		}
		cb := r.abandoned
		r.mu.Unlock()
		if !present {
			// The reply raced the timeout: whoever removed the waiter
			// (handle or Stop) is committed to sending exactly one value
			// into the buffered channel, possibly a moment from now — so
			// a blocking receive cannot hang, while a non-blocking one
			// could miss an allocated number and wedge the dense order.
			if ack := <-ch; ack.Err == "" && cb != nil {
				cb(ack.N)
			}
		}
		return 0, fmt.Errorf("%w (%s)", ErrTimeout, r.remote)
	}
}

// forget drops a waiter whose request never reached the wire.
func (r *Remote) forget(id uint64) {
	r.mu.Lock()
	delete(r.waiters, id)
	r.mu.Unlock()
}

// Stop implements Service: outstanding and future calls fail fast.
func (r *Remote) Stop() {
	r.mu.Lock()
	if !r.stopped {
		r.stopped = true
		close(r.stopCh)
	}
	for id, ch := range r.waiters {
		delete(r.waiters, id)
		if ch != nil {
			ch <- NextAckMsg{ID: id, Err: ErrStopped.Error()}
		}
	}
	r.mu.Unlock()
}
