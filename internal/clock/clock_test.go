package clock

import (
	"testing"
	"time"
)

func TestSystemAdvances(t *testing.T) {
	var s System
	a := s.NowMicros()
	time.Sleep(2 * time.Millisecond)
	b := s.NowMicros()
	if b <= a {
		t.Fatalf("system clock did not advance: %d then %d", a, b)
	}
}

func TestManual(t *testing.T) {
	m := NewManual(100)
	if m.NowMicros() != 100 {
		t.Fatal("NewManual start ignored")
	}
	m.Advance(3 * time.Millisecond)
	if m.NowMicros() != 3100 {
		t.Fatalf("Advance: got %d, want 3100", m.NowMicros())
	}
	m.Set(50)
	if m.NowMicros() != 50 {
		t.Fatal("Set ignored")
	}
}

func TestSkewedOffset(t *testing.T) {
	base := NewManual(10_000)
	s := NewSkewed(base, 500*time.Microsecond, 0)
	if got := s.NowMicros(); got != 10_500 {
		t.Fatalf("offset: got %d, want 10500", got)
	}
	s2 := NewSkewed(base, -2*time.Millisecond, 0)
	if got := s2.NowMicros(); got != 8_000 {
		t.Fatalf("negative offset: got %d, want 8000", got)
	}
}

func TestSkewedDrift(t *testing.T) {
	base := NewManual(0)
	s := NewSkewed(base, 0, 100) // 100 PPM
	if got := s.NowMicros(); got != 0 {
		t.Fatalf("drift at t0: got %d, want 0", got)
	}
	base.Set(10_000_000) // 10 seconds of base time
	got := s.NowMicros()
	want := int64(10_000_000 + 1000) // 100µs gained per second × 10s
	if got != want {
		t.Fatalf("drift after 10s: got %d, want %d", got, want)
	}
}

func TestMonotonicClampsBackwardSteps(t *testing.T) {
	base := NewManual(1000)
	m := NewMonotonic(base)
	if m.NowMicros() != 1000 {
		t.Fatal("first read wrong")
	}
	base.Set(500) // clock steps backward (e.g. NTP correction)
	if got := m.NowMicros(); got != 1000 {
		t.Fatalf("monotonic read went backward: %d", got)
	}
	base.Set(1500)
	if got := m.NowMicros(); got != 1500 {
		t.Fatalf("monotonic did not resume: %d", got)
	}
}

func TestSpinForApproximatesDuration(t *testing.T) {
	start := time.Now()
	SpinFor(2 * time.Millisecond)
	elapsed := time.Since(start)
	if elapsed < 2*time.Millisecond {
		t.Fatalf("SpinFor returned early: %v", elapsed)
	}
	SpinFor(0)  // must not hang
	SpinFor(-1) // must not hang
}

func TestUntilBoundaryLandsOnMultiples(t *testing.T) {
	const d = 7 * time.Millisecond
	for i := 0; i < 5; i++ {
		wait := UntilBoundary(d)
		if wait <= 0 || wait > d {
			t.Fatalf("UntilBoundary(%v) = %v, want in (0, %v]", d, wait, d)
		}
		at := time.Now().Add(wait).UnixNano()
		// The instant it names is a multiple of d, up to the few
		// microseconds between the two clock reads.
		if off := at % int64(d); off > int64(time.Millisecond) && off < int64(d-time.Millisecond) {
			t.Fatalf("boundary off by %v", time.Duration(off))
		}
	}
	if UntilBoundary(0) != 0 {
		t.Fatal("non-positive period must not wait")
	}
}
