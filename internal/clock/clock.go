// Package clock provides the physical time sources the protocols read.
//
// The paper assumes partition clocks are loosely synchronized by NTP and
// explicitly claims correctness under arbitrary skew (only performance
// degrades, §3.2). To test that claim we cannot use the host clock alone:
// this package offers sources with injectable constant offset, linear
// drift, and full manual control, all implementing hlc.PhysSource.
package clock

import (
	"sync"
	"sync/atomic"
	"time"
)

// epochUnixMicro mirrors hlc.Epoch; duplicated here (it is a constant
// moment) to keep this package free of dependencies.
var epochUnixMicro = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC).UnixMicro()

// Source supplies physical time in microseconds since the HLC epoch.
// It matches hlc.PhysSource.
type Source interface {
	NowMicros() int64
}

// System reads the host clock. It is the default source in every
// deployment.
type System struct{}

// NowMicros implements Source.
func (System) NowMicros() int64 { return time.Now().UnixMicro() - epochUnixMicro }

// Monotonic wraps a Source and guarantees non-decreasing readings, the
// assumption Algorithm 2 makes of Clock_n. The host clock already behaves
// this way in practice; Monotonic makes the property explicit when wrapping
// skewed or manual sources in tests.
type Monotonic struct {
	Base Source

	mu   sync.Mutex
	last int64
}

// NewMonotonic returns a monotonic view of base.
func NewMonotonic(base Source) *Monotonic { return &Monotonic{Base: base} }

// NowMicros implements Source.
func (m *Monotonic) NowMicros() int64 {
	now := m.Base.NowMicros()
	m.mu.Lock()
	defer m.mu.Unlock()
	if now < m.last {
		return m.last
	}
	m.last = now
	return now
}

// Skewed perturbs a base source by a constant offset plus linear drift,
// modelling an imperfectly NTP-disciplined clock. A drift of d PPM gains
// d microseconds per second of base time.
type Skewed struct {
	Base        Source
	OffsetMicro int64   // constant offset, may be negative
	DriftPPM    float64 // parts-per-million drift rate

	initOnce sync.Once
	start    int64
}

// NewSkewed returns a source running offset microseconds apart from base
// and drifting by driftPPM.
func NewSkewed(base Source, offset time.Duration, driftPPM float64) *Skewed {
	return &Skewed{Base: base, OffsetMicro: offset.Microseconds(), DriftPPM: driftPPM}
}

// NowMicros implements Source.
func (s *Skewed) NowMicros() int64 {
	now := s.Base.NowMicros()
	s.initOnce.Do(func() { s.start = now })
	elapsed := now - s.start
	drift := int64(float64(elapsed) * s.DriftPPM / 1e6)
	return now + s.OffsetMicro + drift
}

// SpinFor busy-waits for approximately d, consuming CPU. The benchmark
// harness uses it to charge emulated per-message processing cost to
// service goroutines (the syscall/parse/reply work a real networked
// sequencer performs per request), which time.Sleep cannot model: sleeping
// yields the CPU, but message handling does not.
func SpinFor(d time.Duration) {
	if d <= 0 {
		return
	}
	start := time.Now()
	for time.Since(start) < d {
	}
}

// Manual is a fully test-controlled source. The zero value reads 0.
type Manual struct {
	now atomic.Int64
}

// NewManual returns a manual source starting at start microseconds.
func NewManual(start int64) *Manual {
	m := &Manual{}
	m.now.Store(start)
	return m
}

// NowMicros implements Source.
func (m *Manual) NowMicros() int64 { return m.now.Load() }

// Set moves the clock to the absolute reading t (microseconds).
func (m *Manual) Set(t int64) { m.now.Store(t) }

// Advance moves the clock forward by d and returns the new reading.
func (m *Manual) Advance(d time.Duration) int64 {
	return m.now.Add(d.Microseconds())
}

// UntilBoundary returns how long from now until the next multiple of d on
// the host's wall clock (d itself when now sits exactly on one). Periodic
// senders that wait on it instead of "d after the last round" fire in
// phase: every process on a host — and, up to NTP skew, every host — runs
// its round at the same instants, so a stage that needs the minimum over
// many senders (Eunomia's stable time) advances once per period for all of
// them together instead of waiting for the latest-phased one.
func UntilBoundary(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return d - time.Duration(time.Now().UnixNano()%int64(d))
}
