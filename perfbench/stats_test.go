package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileRawSamples(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5},
		{10, 1.4}, // between ranks: 1 + 0.4*(2-1)
		{95, 4.8},
	} {
		if got := percentile(append([]float64(nil), xs...), c.p); !near(got, c.want) {
			t.Errorf("p%.0f = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("single-sample p95 = %v, want 7", got)
	}
}

// A 3% move must read as a 3% move: raw samples do not snap to bucket
// floors the way a log-bucketed histogram does.
func TestPercentileResolvesSmallMoves(t *testing.T) {
	var a, b samples
	for i := 1; i <= 1000; i++ {
		a.add(float64(i))
		b.add(float64(i) * 1.03)
	}
	if r := b.pct(50) / a.pct(50); !near(r, 1.03) {
		t.Errorf("p50 ratio = %v, want 1.03", r)
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2}
	if m := median(xs); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
	if xs[0] != 3 || xs[1] != 1 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestSlicedPctIgnoresOneBurst(t *testing.T) {
	var s samples
	for sec := 0; sec < 10; sec++ {
		for i := 0; i < 100; i++ {
			v := 1.0
			if sec == 4 {
				v = 500 // a stall confined to one slice
			}
			s.addAt(time.Duration(sec)*time.Second+time.Duration(i)*time.Millisecond, v)
		}
	}
	if got := s.slicedPct(95, time.Second); got != 1 {
		t.Errorf("sliced p95 = %v, want 1", got)
	}
	if got := s.pct(95); got != 500 {
		t.Errorf("whole-run p95 = %v, want 500", got)
	}
}

func TestPctKeepsSlicesPaired(t *testing.T) {
	var s samples
	for i := 0; i < 20; i++ {
		s.addAt(0, float64(1000+i)) // second 0: 20 large values
	}
	for i := 0; i < 30; i++ {
		s.addAt(time.Second, float64(i)) // second 1: 30 small values
	}
	if got := s.slicedPct(50, time.Second); got != 512 {
		t.Fatalf("sliced p50 = %v, want 512", got)
	}
	s.pct(50) // must not reorder the samples under their timestamps
	if got := s.slicedPct(50, time.Second); got != 512 {
		t.Errorf("sliced p50 after pct = %v, want 512", got)
	}
}

func TestFailureShare(t *testing.T) {
	for _, c := range []struct {
		attempted, failed int64
		want              float64
	}{{0, 0, 0}, {1000, 0, 0}, {1000, 13, 0.013}, {4, 4, 1}} {
		if got := failureShare(c.attempted, c.failed); !near(got, c.want) {
			t.Errorf("failureShare(%d, %d) = %v, want %v", c.attempted, c.failed, got, c.want)
		}
	}
}

func TestTallyCountsFailuresAndWrongOutput(t *testing.T) {
	var tl tally
	tl.attempt(10)
	tl.fail("visibility wait timeout")
	tl.failN("write lost", 2)
	tl.failN("ignored", 0)
	tl.wrongOutput("value of another key")
	if tl.attempted != 10 || tl.failed != 4 || tl.wrong != 1 {
		t.Fatalf("attempted=%d failed=%d wrong=%d, want 10 4 1", tl.attempted, tl.failed, tl.wrong)
	}
	if len(tl.reasons) != 3 || tl.reasons["write lost"] != 2 {
		t.Errorf("reasons = %v", tl.reasons)
	}
	if got := failureShare(tl.attempted, tl.failed); !near(got, 0.4) {
		t.Errorf("share = %v, want 0.4", got)
	}
}

func TestParseProm(t *testing.T) {
	text := strings.Join([]string{
		"# HELP ignored",
		`eunomia_wal_fsync_seconds_sum{component="partition"} 0.5`,
		`eunomia_wal_fsync_seconds_count{component="partition"} 100`,
		`eunomia_wal_fsync_seconds_count{component="receiver"} 50`,
		"eunomia_fabric_sent_total 7",
	}, "\n")
	p := promSet{}
	parseProm(strings.NewReader(text), p)
	parseProm(strings.NewReader("eunomia_fabric_sent_total 3\n"), p) // second server
	if got := p.sum("eunomia_fabric_sent_total", ""); got != 10 {
		t.Errorf("summed counter = %v, want 10", got)
	}
	if got := p.sum("eunomia_wal_fsync_seconds_count", ""); got != 150 {
		t.Errorf("all components = %v, want 150", got)
	}
	v, n := meanDelta(promSet{}, p, "eunomia_wal_fsync_seconds", `component="partition"`, 1e3)
	if !near(v, 5) || n != 100 {
		t.Errorf("mean = %v ms over %d, want 5 over 100", v, n)
	}
}
