package fabric

import (
	"sync"
	"time"

	"eunomia/internal/clock"
)

// Batcher accumulates items per destination and flushes each destination's
// accumulated slice as a single message at every wall-clock multiple of
// the interval, preserving FIFO order per destination. It implements the §5 "Communication Patterns"
// optimization — batch at the sender, propagate periodically — for every
// component that ships streams across the fabric (payload shipping,
// baseline replication, heartbeats ride along implicitly).
type Batcher[T any] struct {
	net      Fabric
	from     Addr
	interval time.Duration

	mu     sync.Mutex
	queues map[Addr][]T
	// sendMu serialises flushes, so one that starts after another
	// returns after that one's sends: a caller may send on the same link
	// right behind its own Flush and know every item queued before it
	// went first.
	sendMu sync.Mutex

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewBatcher starts a batcher sending from the given address every
// interval (default 1ms if non-positive).
func NewBatcher[T any](net Fabric, from Addr, interval time.Duration) *Batcher[T] {
	if interval <= 0 {
		interval = time.Millisecond
	}
	b := &Batcher[T]{
		net:      net,
		from:     from,
		interval: interval,
		queues:   make(map[Addr][]T),
		stop:     make(chan struct{}),
	}
	b.wg.Add(1)
	go b.loop()
	return b
}

// Add queues one item for destination to.
func (b *Batcher[T]) Add(to Addr, item T) {
	b.mu.Lock()
	b.queues[to] = append(b.queues[to], item)
	b.mu.Unlock()
}

// Flush sends every queued batch immediately, after any flush already
// under way. It is also called on Close so no items are lost on orderly
// shutdown.
func (b *Batcher[T]) Flush() {
	b.sendMu.Lock()
	defer b.sendMu.Unlock()
	b.mu.Lock()
	batches := b.queues
	b.queues = make(map[Addr][]T, len(batches))
	b.mu.Unlock()
	for to, items := range batches {
		if len(items) > 0 {
			b.net.Send(b.from, to, items)
		}
	}
}

// Close flushes outstanding items and stops the loop.
func (b *Batcher[T]) Close() {
	b.stopOnce.Do(func() { close(b.stop) })
	b.wg.Wait()
}

// loop flushes on wall-clock multiples of the interval, the same
// boundaries the Eunomia clients flush on (clock.UntilBoundary), so a
// payload leaves together with the metadata batch that carries its id.
func (b *Batcher[T]) loop() {
	defer b.wg.Done()
	timer := time.NewTimer(clock.UntilBoundary(b.interval))
	defer timer.Stop()
	for {
		select {
		case <-b.stop:
			b.Flush()
			return
		case <-timer.C:
			b.Flush()
			timer.Reset(clock.UntilBoundary(b.interval))
		}
	}
}
