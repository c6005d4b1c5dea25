// Package hlc implements hybrid logical clocks (Kulkarni et al., "Logical
// Physical Clocks", OPODIS 2014), the timestamp mechanism the Eunomia
// protocol uses to satisfy its two ordering properties (§3.1 of the paper):
//
//	Property 1: if update uj causally depends on ui then uj.ts > ui.ts.
//	Property 2: consecutive updates accepted by one partition carry
//	            strictly increasing timestamps.
//
// A Timestamp packs 48 bits of physical time (microseconds since Epoch)
// and 16 bits of logical counter into one uint64. Packing has a pleasant
// consequence: ts+1 performs exactly the hybrid-clock "increment" — the
// logical counter advances, and on overflow it carries into the physical
// part, preserving monotonicity without any special casing.
//
// The logical bits make the protocol resilient to clock skew: when a
// partition receives a dependency ahead of its physical clock it moves the
// hybrid clock forward instead of blocking until physical time catches up
// (§3.2, Hybrid Clocks).
//
// A Clock issues timestamps in one of two ways. Tick reads the physical
// clock on every call and returns max(physical, dep+1, last+1); the
// baselines use it, as does a partition with no Eunomia stream. Next reads
// no clock: it returns the smallest timestamp above max(dep, last) whose
// low StreamBits hold the caller's stream id, so its timestamps are laid
// out as
//
//	physical (48 bits) | logical (16-StreamBits) | stream (StreamBits)
//
// and two streams of one datacenter never issue the same timestamp. The
// owner of a Next clock keeps its physical floor fresh with Advance: the
// Eunomia client advances once when built and once per flush, so a
// timestamp from Next trails wall time by at most one batch interval
// (plus the time a flush takes). Gauges computed from such timestamps
// read that trail as lag.
package hlc

import (
	"fmt"
	"sync"
	"time"
)

// LogicalBits is the width of the logical counter within a Timestamp.
const LogicalBits = 16

// logicalMask extracts the logical counter.
const logicalMask = (1 << LogicalBits) - 1

// Epoch is the origin of the physical component. 48 bits of microseconds
// give ~8.9 years of range from the epoch.
var Epoch = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

var epochUnixMicro = Epoch.UnixMicro()

// Timestamp is a hybrid logical timestamp: 48 bits of physical microseconds
// since Epoch, 16 bits of logical counter. The natural uint64 order is the
// hybrid-clock order.
type Timestamp uint64

// New packs a physical component (microseconds since Epoch) and a logical
// counter into a Timestamp. Negative physical components clamp to zero.
func New(physMicros int64, logical uint16) Timestamp {
	if physMicros < 0 {
		physMicros = 0
	}
	return Timestamp(uint64(physMicros)<<LogicalBits | uint64(logical))
}

// FromTime converts a wall-clock instant to a Timestamp with a zero
// logical component.
func FromTime(t time.Time) Timestamp {
	return New(t.UnixMicro()-epochUnixMicro, 0)
}

// Physical returns the physical component in microseconds since Epoch.
func (t Timestamp) Physical() int64 { return int64(t >> LogicalBits) }

// Logical returns the logical counter.
func (t Timestamp) Logical() uint16 { return uint16(t & logicalMask) }

// Time converts the physical component back to a wall-clock instant.
func (t Timestamp) Time() time.Time {
	return time.UnixMicro(t.Physical() + epochUnixMicro).UTC()
}

// Next returns the smallest timestamp strictly greater than t.
func (t Timestamp) Next() Timestamp { return t + 1 }

// String renders the timestamp as physical.logical for debugging.
func (t Timestamp) String() string {
	return fmt.Sprintf("%d.%d", t.Physical(), t.Logical())
}

// Max returns the largest of the given timestamps; zero if none are given.
func Max(ts ...Timestamp) Timestamp {
	var m Timestamp
	for _, t := range ts {
		if t > m {
			m = t
		}
	}
	return m
}

// Min returns the smallest of the given timestamps; zero if none are given.
func Min(ts ...Timestamp) Timestamp {
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

// PhysSource supplies physical time in microseconds since Epoch. It is a
// tiny interface (rather than a func type) so that the richer clock sources
// in internal/clock — skewed, drifting, manual — plug in without adapters.
type PhysSource interface {
	NowMicros() int64
}

// PhysFunc adapts a plain function to PhysSource.
type PhysFunc func() int64

// NowMicros implements PhysSource.
func (f PhysFunc) NowMicros() int64 { return f() }

// SystemSource is a PhysSource backed by the host clock.
type SystemSource struct{}

// NowMicros implements PhysSource.
func (SystemSource) NowMicros() int64 { return time.Now().UnixMicro() - epochUnixMicro }

// StreamBits is the width of the stream id Next writes into the low bits
// of a timestamp's logical counter.
const StreamBits = 8

// MaxStreams bounds the streams that can share one datacenter's
// timestamp space: Next accepts stream ids 0 to MaxStreams-1.
const MaxStreams = 1 << StreamBits

const streamMask = MaxStreams - 1

// CheckStreams reports whether n streams, numbered from 0, fit the stream
// bits. Deployments check their partition count with it once, up front,
// so that no partition id is ever truncated into another's.
func CheckStreams(n int) error {
	if n > MaxStreams {
		return fmt.Errorf("%d partition streams exceed the hybrid clock's %d stream ids", n, MaxStreams)
	}
	return nil
}

// Clock is a hybrid logical clock owned by one partition (or one client in
// tests). It is safe for concurrent use.
//
// The zero value is not usable; construct with NewClock.
type Clock struct {
	src PhysSource

	mu   sync.Mutex
	last Timestamp
}

// NewClock returns a Clock reading physical time from src. A nil src uses
// the system clock.
func NewClock(src PhysSource) *Clock {
	if src == nil {
		src = SystemSource{}
	}
	return &Clock{src: src}
}

// Tick produces the timestamp for a new update, implementing Algorithm 2
// line 5 of the paper:
//
//	MaxTs_n <- max(Clock_n, Clock_c + 1, MaxTs_n + 1)
//
// dep is the client's clock (the largest timestamp in its causal history);
// pass zero when there is no dependency. The returned timestamp is strictly
// greater than both dep and every timestamp previously returned or observed
// by this clock, which yields Properties 1 and 2.
func (c *Clock) Tick(dep Timestamp) Timestamp {
	phys := New(c.src.NowMicros(), 0)
	c.mu.Lock()
	ts := Max(phys, dep+1, c.last+1)
	c.last = ts
	c.mu.Unlock()
	return ts
}

// Next is Tick without the clock read, for a clock that issues for one
// stream: it returns the smallest timestamp strictly greater than dep and
// than every timestamp previously issued or observed by this clock whose
// low StreamBits equal stream. Streams of one datacenter pass distinct
// ids, so they never tie. The physical floor moves only through Advance
// (and Tick, Observe). A stream id outside [0, MaxStreams) panics rather
// than alias another stream.
func (c *Clock) Next(dep Timestamp, stream int) Timestamp {
	if uint(stream) >= MaxStreams {
		panic(fmt.Sprintf("hlc: stream id %d outside [0, %d)", stream, MaxStreams))
	}
	c.mu.Lock()
	base := max(c.last, dep)
	ts := base&^streamMask | Timestamp(stream)
	if ts <= base {
		ts += MaxStreams
	}
	c.last = ts
	c.mu.Unlock()
	return ts
}

// Advance moves the clock to max(physical time, last issued) and returns
// that timestamp: every later Tick or Next is strictly greater, so it is
// a watermark the owner may promise — provided nothing it already issued
// is still unshipped, which is the caller's side of the bargain (the
// Eunomia client calls it under the lock its issuing calls hold).
func (c *Clock) Advance() Timestamp {
	phys := New(c.src.NowMicros(), 0)
	c.mu.Lock()
	defer c.mu.Unlock()
	if phys > c.last {
		c.last = phys
	}
	return c.last
}

// Observe merges an externally observed timestamp into the clock, ensuring
// that future Ticks are strictly greater than it. Partitions use it when
// applying remote updates so that a locally originated overwrite of a
// remote version is ordered after it.
func (c *Clock) Observe(ts Timestamp) {
	c.mu.Lock()
	if ts > c.last {
		c.last = ts
	}
	c.mu.Unlock()
}

// Now returns the current hybrid time without advancing the clock's issued
// watermark: the max of physical time and the last issued timestamp.
func (c *Clock) Now() Timestamp {
	phys := New(c.src.NowMicros(), 0)
	c.mu.Lock()
	defer c.mu.Unlock()
	return Max(phys, c.last)
}

// Last returns the largest timestamp issued or observed so far.
func (c *Clock) Last() Timestamp {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last
}
