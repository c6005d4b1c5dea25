package hlc

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestPackUnpack(t *testing.T) {
	cases := []struct {
		phys    int64
		logical uint16
	}{
		{0, 0}, {1, 0}, {0, 1}, {12345678, 42}, {1 << 40, 65535},
	}
	for _, c := range cases {
		ts := New(c.phys, c.logical)
		if ts.Physical() != c.phys {
			t.Errorf("New(%d,%d).Physical() = %d", c.phys, c.logical, ts.Physical())
		}
		if ts.Logical() != c.logical {
			t.Errorf("New(%d,%d).Logical() = %d", c.phys, c.logical, ts.Logical())
		}
	}
}

func TestNegativePhysicalClamps(t *testing.T) {
	if ts := New(-5, 3); ts.Physical() != 0 || ts.Logical() != 3 {
		t.Errorf("New(-5,3) = %v, want physical clamped to 0", ts)
	}
}

func TestIncrementCarriesIntoPhysical(t *testing.T) {
	ts := New(7, 65535)
	next := ts.Next()
	if next.Physical() != 8 || next.Logical() != 0 {
		t.Errorf("overflow carry: got %d.%d, want 8.0", next.Physical(), next.Logical())
	}
}

func TestOrderMatchesComponents(t *testing.T) {
	// uint64 order must equal (physical, logical) lexicographic order.
	f := func(p1, p2 uint32, l1, l2 uint16) bool {
		a := New(int64(p1), l1)
		b := New(int64(p2), l2)
		lex := p1 < p2 || (p1 == p2 && l1 < l2)
		return (a < b) == lex
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFromTimeRoundTrip(t *testing.T) {
	now := time.Date(2025, 6, 15, 12, 30, 45, 123456000, time.UTC)
	ts := FromTime(now)
	if got := ts.Time(); !got.Equal(now) {
		t.Errorf("Time() = %v, want %v", got, now)
	}
}

func TestMaxMin(t *testing.T) {
	if Max() != 0 {
		t.Error("Max() of nothing should be 0")
	}
	if Max(3, 9, 1) != 9 {
		t.Error("Max(3,9,1) != 9")
	}
	if Min() != 0 {
		t.Error("Min() of nothing should be 0")
	}
	if Min(3, 9, 1) != 1 {
		t.Error("Min(3,9,1) != 1")
	}
}

// manualSource is a controllable physical source for clock tests.
type manualSource struct {
	mu sync.Mutex
	t  int64
}

func (m *manualSource) NowMicros() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.t
}

func (m *manualSource) set(t int64) {
	m.mu.Lock()
	m.t = t
	m.mu.Unlock()
}

func TestTickStrictlyIncreasing(t *testing.T) {
	src := &manualSource{t: 1000}
	c := NewClock(src)
	prev := c.Tick(0)
	for i := 0; i < 1000; i++ {
		ts := c.Tick(0)
		if ts <= prev {
			t.Fatalf("Tick not strictly increasing: %v then %v", prev, ts)
		}
		prev = ts
	}
}

func TestTickDominatesDependency(t *testing.T) {
	// Property 1 machinery: the issued timestamp strictly exceeds the
	// dependency even when it is far ahead of physical time.
	src := &manualSource{t: 1000}
	c := NewClock(src)
	dep := New(999999, 17) // way ahead of the 1000µs physical clock
	ts := c.Tick(dep)
	if ts <= dep {
		t.Fatalf("Tick(%v) = %v, not greater", dep, ts)
	}
	// And the clock did not block: it absorbed the skew logically.
	if ts != dep+1 {
		t.Fatalf("expected logical absorption dep+1, got %v", ts)
	}
}

func TestTickFollowsPhysicalWhenAhead(t *testing.T) {
	src := &manualSource{t: 5000}
	c := NewClock(src)
	ts := c.Tick(0)
	if ts.Physical() != 5000 || ts.Logical() != 0 {
		t.Fatalf("Tick with fresh clock = %v, want 5000.0", ts)
	}
	src.set(6000)
	ts2 := c.Tick(0)
	if ts2.Physical() != 6000 {
		t.Fatalf("Tick after physical advance = %v, want physical 6000", ts2)
	}
}

func TestAdvanceDominatesIssuedAndLaterTicks(t *testing.T) {
	src := &manualSource{t: 1000}
	c := NewClock(src)
	c.Observe(New(3000, 2)) // remote timestamp ahead of physical time
	if w := c.Advance(); w != New(3000, 2) {
		t.Fatalf("Advance behind the clock = %v, want last 3000.2", w)
	}
	src.set(5000)
	w := c.Advance()
	if w != New(5000, 0) {
		t.Fatalf("Advance = %v, want physical 5000.0", w)
	}
	if ts := c.Tick(0); ts <= w {
		t.Fatalf("Tick after Advance = %v, not above the watermark %v", ts, w)
	}
}

func TestObserveAdvancesWatermark(t *testing.T) {
	src := &manualSource{t: 1000}
	c := NewClock(src)
	c.Observe(New(9999, 5))
	if ts := c.Tick(0); ts <= New(9999, 5) {
		t.Fatalf("Tick after Observe = %v, want > 9999.5", ts)
	}
}

func TestObserveIgnoresStale(t *testing.T) {
	src := &manualSource{t: 1000}
	c := NewClock(src)
	first := c.Tick(0)
	c.Observe(first - 100)
	if got := c.Last(); got != first {
		t.Fatalf("stale Observe moved Last: %v -> %v", first, got)
	}
}

func TestNowDoesNotAdvanceWatermark(t *testing.T) {
	src := &manualSource{t: 1000}
	c := NewClock(src)
	issued := c.Tick(0)
	src.set(2000)
	now := c.Now()
	if now.Physical() != 2000 {
		t.Fatalf("Now = %v, want physical 2000", now)
	}
	if c.Last() != issued {
		t.Fatal("Now advanced the issued watermark")
	}
}

// countingSource counts the physical clock reads.
type countingSource struct {
	manualSource
	reads int
}

func (c *countingSource) NowMicros() int64 {
	c.reads++
	return c.manualSource.NowMicros()
}

// TestNextStreamsNeverTie gives two streams clocks in the same state —
// the same physical floor, the same observed and dependency timestamps, a
// coarse physical clock — and requires their timestamps never to tie,
// each to exceed its dependency and everything observed, and each to
// carry its stream id, all without reading the physical clock.
func TestNextStreamsNeverTie(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	src := &countingSource{manualSource: manualSource{t: 1000}}
	a, b := NewClock(src), NewClock(src)
	a.Advance()
	b.Advance()
	src.reads = 0
	seen := map[Timestamp]int{}
	var dep Timestamp
	for i := 0; i < 5000; i++ {
		if r.Intn(10) == 0 {
			obs := New(1000+int64(r.Intn(50)), uint16(r.Intn(1<<16)))
			a.Observe(obs)
			b.Observe(obs)
		}
		if r.Intn(4) == 0 {
			dep = max(dep, New(1000+int64(r.Intn(50)), uint16(r.Intn(1<<16))))
		}
		lastA, lastB := a.Last(), b.Last()
		ta, tb := a.Next(dep, 3), b.Next(dep, 200)
		for _, c := range []struct {
			ts, last Timestamp
			stream   int
		}{{ta, lastA, 3}, {tb, lastB, 200}} {
			if c.ts <= dep || c.ts <= c.last {
				t.Fatalf("Next = %v, not above dep %v and last %v", c.ts, dep, c.last)
			}
			if got := int(c.ts & (MaxStreams - 1)); got != c.stream {
				t.Fatalf("Next = %v carries stream %d, want %d", c.ts, got, c.stream)
			}
			if c.ts-max(dep, c.last) > MaxStreams {
				t.Fatalf("Next = %v skipped past the smallest candidate above %v", c.ts, max(dep, c.last))
			}
			if s, ok := seen[c.ts]; ok && s != c.stream {
				t.Fatalf("streams %d and %d both issued %v", s, c.stream, c.ts)
			}
			seen[c.ts] = c.stream
		}
	}
	if src.reads != 0 {
		t.Fatalf("Next read the physical clock %d times", src.reads)
	}
}

func TestNextFollowsAdvance(t *testing.T) {
	src := &manualSource{t: 1000}
	c := NewClock(src)
	w := c.Advance()
	if ts := c.Next(0, 0); ts <= w || ts.Physical() != 1000 {
		t.Fatalf("Next after Advance to %v = %v, want above it on physical 1000", w, ts)
	}
	src.set(9000)
	if ts := c.Next(0, 5); ts.Physical() != 1000 {
		t.Fatalf("Next read the moved physical clock: %v", ts)
	}
	w = c.Advance()
	if ts := c.Next(0, 5); ts <= w || ts.Physical() != 9000 {
		t.Fatalf("Next after Advance to %v = %v, want above it on physical 9000", w, ts)
	}
}

func TestNextRejectsOutOfRangeStream(t *testing.T) {
	c := NewClock(nil)
	for _, s := range []int{-1, MaxStreams} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Next accepted stream %d", s)
				}
			}()
			c.Next(0, s)
		}()
	}
	if err := CheckStreams(MaxStreams); err != nil {
		t.Fatalf("CheckStreams(%d) = %v", MaxStreams, err)
	}
	if err := CheckStreams(MaxStreams + 1); err == nil {
		t.Fatalf("CheckStreams(%d) accepted", MaxStreams+1)
	}
}

func TestConcurrentTickUniqueAndMonotonicPerGoroutineObservation(t *testing.T) {
	c := NewClock(nil)
	const workers = 8
	const per = 2000
	out := make([][]Timestamp, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var dep Timestamp
			for i := 0; i < per; i++ {
				dep = c.Tick(dep)
				out[w] = append(out[w], dep)
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[Timestamp]bool, workers*per)
	for w := range out {
		prev := Timestamp(0)
		for _, ts := range out[w] {
			if ts <= prev {
				t.Fatalf("worker %d saw non-increasing timestamps", w)
			}
			prev = ts
			if seen[ts] {
				t.Fatalf("duplicate timestamp %v issued", ts)
			}
			seen[ts] = true
		}
	}
}

// TestCausalChainProperty checks Property 1 end to end over random causal
// chains: following any chain of reads-from edges, timestamps strictly
// increase.
func TestCausalChainProperty(t *testing.T) {
	const partitions = 5
	src := make([]*manualSource, partitions)
	clocks := make([]*Clock, partitions)
	for i := range clocks {
		src[i] = &manualSource{t: int64(1000 * i)} // deliberately skewed
		clocks[i] = NewClock(src[i])
	}
	r := rand.New(rand.NewSource(7))
	var clientClock Timestamp
	for i := 0; i < 10000; i++ {
		p := r.Intn(partitions)
		// Sometimes advance a partition's physical clock.
		if r.Intn(3) == 0 {
			src[p].set(src[p].NowMicros() + int64(r.Intn(2000)))
		}
		ts := clocks[p].Tick(clientClock)
		if ts <= clientClock {
			t.Fatalf("causality violated at step %d: client %v, update %v", i, clientClock, ts)
		}
		clientClock = ts
	}
}

func BenchmarkTick(b *testing.B) {
	c := NewClock(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Tick(0)
	}
}

func BenchmarkNext(b *testing.B) {
	c := NewClock(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Next(0, 1)
	}
}

func BenchmarkTickWithDependency(b *testing.B) {
	c := NewClock(nil)
	var dep Timestamp
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dep = c.Tick(dep)
	}
}
