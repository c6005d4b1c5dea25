// Package sequencer implements the sequencer-based baselines the paper
// measures Eunomia against (§2, §7.1).
//
// A traditional sequencer (as in ChainReaction and SwiftCloud) is a
// per-datacenter service that every update operation consults
// synchronously, in the client's critical path, to obtain a monotonically
// increasing number. Its appeal is that remote dependency checking becomes
// trivial; its cost is that it serializes all local updates and its round
// trip inflates every update's latency.
//
// Three variants are provided:
//
//   - Single: the plain non-fault-tolerant sequencer (S-Seq).
//   - Chain: a fault-tolerant sequencer replicated with chain replication
//     (van Renesse & Schneider, OSDI'04), as in §7.1: requests enter at
//     the head and are acknowledged by the tail.
//   - The A-Seq behaviour of Figure 1 — contacting the sequencer in
//     parallel with applying the update — is a client-side choice: call
//     NextAsync instead of Next. It performs the same total work but
//     removes the round trip from the critical path (and, as the paper
//     notes, fails to capture causality; it exists to isolate the cost of
//     the synchronous hop).
package sequencer

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"eunomia/internal/clock"
)

// ErrStopped is returned once the service has been shut down.
var ErrStopped = errors.New("sequencer: stopped")

// Service is a monotonic number dispenser.
type Service interface {
	// Next returns the next sequence number, blocking for the service
	// round trip.
	Next() (uint64, error)
	// Stop shuts the service down.
	Stop()
}

// request carries one pending Next call.
type request struct {
	reply chan uint64
}

var replyPool = sync.Pool{
	New: func() any { return make(chan uint64, 1) },
}

// Single is the non-fault-tolerant sequencer: one goroutine owning the
// counter, consulted by a synchronous round trip per call. The request
// channel round trip is the in-process analogue of the RPC the paper's
// partitions perform per update; Delay adds emulated network time on top.
type Single struct {
	reqs    chan request
	stopped atomic.Bool
	done    chan struct{}
	wg      sync.WaitGroup

	// Delay emulates the round-trip network latency of the sequencer
	// hop; the client sleeps it around the exchange. Zero by default.
	Delay time.Duration
	// MessageCost charges emulated per-request processing time (message
	// receive, parse, reply — the work a real networked sequencer does
	// per operation) to the service goroutine. The saturation
	// experiments set it; protocol tests leave it zero.
	MessageCost time.Duration

	issued atomic.Uint64
}

// NewSingle starts a sequencer service.
func NewSingle() *Single {
	s := &Single{
		reqs: make(chan request, 1024),
		done: make(chan struct{}),
	}
	s.wg.Add(1)
	go s.run()
	return s
}

func (s *Single) run() {
	defer s.wg.Done()
	var counter uint64
	for {
		select {
		case <-s.done:
			// Drain outstanding requests so callers never hang.
			for {
				select {
				case r := <-s.reqs:
					counter++
					r.reply <- counter
				default:
					return
				}
			}
		case r := <-s.reqs:
			clock.SpinFor(s.MessageCost)
			counter++
			s.issued.Store(counter)
			r.reply <- counter
		}
	}
}

// Next implements Service.
func (s *Single) Next() (uint64, error) {
	if s.stopped.Load() {
		return 0, ErrStopped
	}
	if s.Delay > 0 {
		time.Sleep(s.Delay / 2)
	}
	reply := replyPool.Get().(chan uint64)
	select {
	case s.reqs <- request{reply: reply}:
	case <-s.done:
		replyPool.Put(reply)
		return 0, ErrStopped
	}
	select {
	case n := <-reply:
		replyPool.Put(reply)
		if s.Delay > 0 {
			time.Sleep(s.Delay - s.Delay/2)
		}
		return n, nil
	case <-s.done:
		// The select above may enqueue after Stop, once run has drained
		// the queue and returned: nothing will answer. The channel stays
		// out of the pool, since a drained request may still be answered.
		return 0, ErrStopped
	}
}

// Issued returns the highest number handed out so far.
func (s *Single) Issued() uint64 { return s.issued.Load() }

// Stop implements Service.
func (s *Single) Stop() {
	if s.stopped.CompareAndSwap(false, true) {
		close(s.done)
		s.wg.Wait()
	}
}

// NextAsync performs the A-Seq interaction: it fires the sequencer request
// on a separate goroutine and returns immediately. The returned channel
// yields the number when the round trip completes; callers that only need
// the throughput effect may discard it.
func NextAsync(s Service) <-chan uint64 {
	out := make(chan uint64, 1)
	go func() {
		if n, err := s.Next(); err == nil {
			out <- n
		}
		close(out)
	}()
	return out
}

// chainItem is a number propagating down the chain toward the tail.
type chainItem struct {
	n     uint64
	reply chan uint64
}

// Chain is a chain-replicated sequencer: the head assigns the number, the
// assignment flows through every middle replica, and the tail acknowledges
// the client. A crash of any replica stops the service (chain repair is
// orthogonal to the paper's measurement, which evaluates only the
// steady-state overhead of the chain — Figure 3).
type Chain struct {
	head    chan chainItem
	stages  []chan chainItem
	stopped atomic.Bool
	done    chan struct{}
	wg      sync.WaitGroup

	// Delay emulates network latency per chain hop (client→head,
	// replica→replica, tail→client): a chain of r replicas costs
	// (r+1) × Delay/2 of emulated wire time per request.
	Delay time.Duration
	// MessageCost charges emulated per-request processing time to every
	// chain stage (each replica receives, records and forwards the
	// assignment).
	MessageCost time.Duration
}

// NewChain starts a chain of n replicas (n >= 1).
func NewChain(n int) *Chain {
	if n < 1 {
		n = 1
	}
	c := &Chain{done: make(chan struct{})}
	c.stages = make([]chan chainItem, n)
	for i := range c.stages {
		c.stages[i] = make(chan chainItem, 1024)
	}
	c.head = c.stages[0]

	// Head assigns; middles forward; tail replies.
	for i := 0; i < n; i++ {
		i := i
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			var counter uint64
			for {
				select {
				case <-c.done:
					return
				case it := <-c.stages[i]:
					clock.SpinFor(c.MessageCost)
					if i == 0 {
						counter++
						it.n = counter
					}
					if c.Delay > 0 && i > 0 {
						// Hop latency between chain replicas.
						time.Sleep(c.Delay / 2)
					}
					if i == n-1 {
						it.reply <- it.n
					} else {
						select {
						case c.stages[i+1] <- it:
						case <-c.done:
							return
						}
					}
				}
			}
		}()
	}
	return c
}

// Next implements Service.
func (c *Chain) Next() (uint64, error) {
	if c.stopped.Load() {
		return 0, ErrStopped
	}
	if c.Delay > 0 {
		time.Sleep(c.Delay / 2)
	}
	reply := replyPool.Get().(chan uint64)
	select {
	case c.head <- chainItem{reply: reply}:
	case <-c.done:
		replyPool.Put(reply)
		return 0, ErrStopped
	}
	select {
	case n := <-reply:
		replyPool.Put(reply)
		if c.Delay > 0 {
			time.Sleep(c.Delay / 2)
		}
		return n, nil
	case <-c.done:
		// Do not return the channel to the pool: a stage may still be
		// holding it and could deposit a stale value into a future call.
		return 0, ErrStopped
	}
}

// Stop implements Service.
func (c *Chain) Stop() {
	if c.stopped.CompareAndSwap(false, true) {
		close(c.done)
		c.wg.Wait()
	}
}
