package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// samples collects raw observations. Percentiles are computed from the
// raw values, never from bucketed histograms, so a 3% move is a 3% move
// and not a bucket boundary.
type samples struct {
	mu sync.Mutex
	v  []float64
	at []time.Duration // when each sample was taken, for slicedPct
}

func (s *samples) add(x float64) {
	s.mu.Lock()
	s.v = append(s.v, x)
	s.mu.Unlock()
}

// addAt records x taken at offset at of the measured window.
func (s *samples) addAt(at time.Duration, x float64) {
	s.mu.Lock()
	s.v = append(s.v, x)
	s.at = append(s.at, at)
	s.mu.Unlock()
}

func (s *samples) addDur(d time.Duration, unit time.Duration) {
	s.add(float64(d) / float64(unit))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func (s *samples) n() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.v)
}

// pct returns the p-th percentile (0..100) of the samples, 0 when empty.
// It sorts a copy: v and at must stay paired for slicedPct.
func (s *samples) pct(p float64) float64 {
	s.mu.Lock()
	v := append([]float64(nil), s.v...)
	s.mu.Unlock()
	return percentile(v, p)
}

// slicedPct splits samples recorded with addAt into consecutive slices
// of width slice, takes the p-th percentile of each, and returns the
// median of those. A burst confined to one slice moves one slice's
// figure, not the result. Slices with fewer than minSlice samples are
// skipped; with no usable slice it falls back to pct.
func (s *samples) slicedPct(p float64, slice time.Duration) float64 {
	const minSlice = 20
	s.mu.Lock()
	groups := map[int64][]float64{}
	for i, at := range s.at {
		k := int64(at / slice)
		groups[k] = append(groups[k], s.v[i])
	}
	s.mu.Unlock()
	var per []float64
	for _, g := range groups {
		if len(g) >= minSlice {
			per = append(per, percentile(g, p))
		}
	}
	if len(per) == 0 {
		return s.pct(p)
	}
	return percentile(per, 50)
}

// percentile is linear interpolation between the closest ranks of the
// sorted samples (the "type 7" estimator of R and NumPy). It sorts xs in
// place. An empty slice yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	if p <= 0 {
		return xs[0]
	}
	if p >= 100 {
		return xs[len(xs)-1]
	}
	h := (float64(len(xs)) - 1) * p / 100
	lo := math.Floor(h)
	i := int(lo)
	if i+1 >= len(xs) {
		return xs[i]
	}
	return xs[i] + (h-lo)*(xs[i+1]-xs[i])
}

// median of a small slice, without disturbing the caller's order.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	return percentile(c, 50)
}

// tally counts operations attempted and failed, and remembers whether
// any output was impossible (a value never written, a duplicate or
// out-of-order emission) as opposed to missing or late.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	wrong     int64
	reasons   map[string]int64
}

func (t *tally) attempt(n int64) {
	t.mu.Lock()
	t.attempted += n
	t.mu.Unlock()
}

// fail records one failed operation under reason.
func (t *tally) fail(reason string) { t.failN(reason, 1) }

func (t *tally) failN(reason string, n int64) {
	if n <= 0 {
		return
	}
	t.mu.Lock()
	if t.reasons == nil {
		t.reasons = make(map[string]int64)
	}
	t.failed += n
	t.reasons[reason] += n
	t.mu.Unlock()
}

// wrongOutput records an operation whose output no correct execution
// could produce. It also counts as a failure.
func (t *tally) wrongOutput(reason string) {
	t.failN(reason, 1)
	t.mu.Lock()
	t.wrong++
	t.mu.Unlock()
}

// failureShare is failed/attempted, 0 when nothing was attempted.
func failureShare(attempted, failed int64) float64 {
	if attempted <= 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// ratio is a/b, 0 when b is 0 (a layer the workload did not exercise).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
