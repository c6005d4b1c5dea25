// Package orderedtest is a conformance suite for ordered.Set
// implementations: internal/runs, internal/rbtree and internal/avltree must
// behave identically to a reference model under deterministic and
// randomized workloads, including the exact extraction pattern the Eunomia
// stabilization loop performs.
package orderedtest

import (
	"math/rand"
	"sort"
	"testing"

	"eunomia/internal/hlc"
	"eunomia/internal/ordered"
)

// Factory mints an empty set under test.
type Factory func() ordered.Set[int]

// Run exercises the full conformance suite.
func Run(t *testing.T, factory Factory) {
	t.Run("EmptySet", func(t *testing.T) { testEmpty(t, factory()) })
	t.Run("InsertAndMin", func(t *testing.T) { testInsertAndMin(t, factory()) })
	t.Run("DuplicateKeyReplaces", func(t *testing.T) { testDuplicate(t, factory()) })
	t.Run("ExtractUpTo", func(t *testing.T) { testExtract(t, factory()) })
	t.Run("ExtractBoundaryInclusive", func(t *testing.T) { testExtractBoundary(t, factory()) })
	t.Run("AscendOrder", func(t *testing.T) { testAscend(t, factory()) })
	t.Run("AscendEarlyStop", func(t *testing.T) { testAscendStop(t, factory()) })
	t.Run("TieBreakByPartitionThenSeq", func(t *testing.T) { testTieBreak(t, factory()) })
	t.Run("RandomizedVsModel", func(t *testing.T) { testRandomized(t, factory) })
	t.Run("StabilizationPattern", func(t *testing.T) { testStabilizationPattern(t, factory()) })
}

func key(ts uint64, p int32, seq uint64) ordered.Key {
	return ordered.Key{TS: hlc.Timestamp(ts), Partition: p, Seq: seq}
}

func testEmpty(t *testing.T, s ordered.Set[int]) {
	if s.Len() != 0 {
		t.Fatal("fresh set not empty")
	}
	if _, _, ok := s.Min(); ok {
		t.Fatal("Min on empty set returned ok")
	}
	if got := s.ExtractUpTo(1 << 60); got != nil {
		t.Fatalf("ExtractUpTo on empty set = %v", got)
	}
}

func testInsertAndMin(t *testing.T, s ordered.Set[int]) {
	for i, ts := range []uint64{50, 10, 90, 30, 70} {
		if !s.Insert(key(ts, 0, uint64(i)), int(ts)) {
			t.Fatalf("fresh insert of %d reported replacement", ts)
		}
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d, want 5", s.Len())
	}
	k, v, ok := s.Min()
	if !ok || k.TS != 10 || v != 10 {
		t.Fatalf("Min = %v,%v,%v; want ts=10", k, v, ok)
	}
}

func testDuplicate(t *testing.T, s ordered.Set[int]) {
	k := key(5, 1, 1)
	s.Insert(k, 100)
	if s.Insert(k, 200) {
		t.Fatal("duplicate insert reported fresh")
	}
	if s.Len() != 1 {
		t.Fatalf("Len after duplicate = %d", s.Len())
	}
	if _, v, _ := s.Min(); v != 200 {
		t.Fatalf("duplicate insert did not replace value: %d", v)
	}
}

func testExtract(t *testing.T, s ordered.Set[int]) {
	for i := 0; i < 100; i++ {
		s.Insert(key(uint64(100-i), 0, uint64(i)), 100-i)
	}
	got := s.ExtractUpTo(50)
	if len(got) != 50 {
		t.Fatalf("extracted %d, want 50", len(got))
	}
	if !sort.IntsAreSorted(got) {
		t.Fatal("extraction not in ascending order")
	}
	if got[0] != 1 || got[49] != 50 {
		t.Fatalf("extraction range [%d,%d], want [1,50]", got[0], got[49])
	}
	if s.Len() != 50 {
		t.Fatalf("Len after extraction = %d, want 50", s.Len())
	}
	if k, _, _ := s.Min(); k.TS != 51 {
		t.Fatalf("Min after extraction = %v, want 51", k.TS)
	}
}

func testExtractBoundary(t *testing.T, s ordered.Set[int]) {
	s.Insert(key(10, 0, 0), 10)
	s.Insert(key(11, 0, 1), 11)
	got := s.ExtractUpTo(10) // inclusive: ts <= max
	if len(got) != 1 || got[0] != 10 {
		t.Fatalf("ExtractUpTo(10) = %v, want [10]", got)
	}
}

func testAscend(t *testing.T, s ordered.Set[int]) {
	perm := rand.New(rand.NewSource(3)).Perm(200)
	for i, p := range perm {
		s.Insert(key(uint64(p), 0, uint64(i)), p)
	}
	var visited []int
	s.Ascend(func(_ ordered.Key, v int) bool {
		visited = append(visited, v)
		return true
	})
	if len(visited) != 200 || !sort.IntsAreSorted(visited) {
		t.Fatalf("Ascend visited %d items, sorted=%v", len(visited), sort.IntsAreSorted(visited))
	}
}

func testAscendStop(t *testing.T, s ordered.Set[int]) {
	for i := 0; i < 10; i++ {
		s.Insert(key(uint64(i), 0, uint64(i)), i)
	}
	count := 0
	s.Ascend(func(_ ordered.Key, _ int) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("Ascend visited %d after early stop, want 3", count)
	}
}

func testTieBreak(t *testing.T, s ordered.Set[int]) {
	// Same timestamp from different partitions: ordered by partition,
	// then sequence — concurrent updates may be serialized in any
	// deterministic order (§3.1).
	s.Insert(key(7, 2, 1), 21)
	s.Insert(key(7, 1, 9), 19)
	s.Insert(key(7, 1, 2), 12)
	got := s.ExtractUpTo(7)
	want := []int{12, 19, 21}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("tie-break order = %v, want %v", got, want)
	}
}

// testRandomized drives the set and a reference model with the same random
// operation stream and compares observable behaviour.
func testRandomized(t *testing.T, factory Factory) {
	r := rand.New(rand.NewSource(42))
	s := factory()
	model := map[ordered.Key]int{}

	for step := 0; step < 5000; step++ {
		switch r.Intn(10) {
		case 0, 1, 2, 3, 4, 5: // insert
			k := key(uint64(r.Intn(1000)), int32(r.Intn(4)), uint64(r.Intn(50)))
			v := r.Int()
			s.Insert(k, v)
			model[k] = v
		case 6, 7: // min
			k, v, ok := s.Min()
			mk, mv, mok := modelMin(model)
			if ok != mok || (ok && (k != mk || v != mv)) {
				t.Fatalf("step %d: Min mismatch: set (%v,%v,%v) model (%v,%v,%v)",
					step, k, v, ok, mk, mv, mok)
			}
		default: // extract
			max := hlc.Timestamp(r.Intn(1100))
			got := s.ExtractUpTo(max)
			want := modelExtract(model, max)
			if len(got) != len(want) {
				t.Fatalf("step %d: extract count %d, want %d", step, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("step %d: extract[%d] = %d, want %d", step, i, got[i], want[i])
				}
			}
		}
		if s.Len() != len(model) {
			t.Fatalf("step %d: Len %d, model %d", step, s.Len(), len(model))
		}
	}
}

func modelMin(m map[ordered.Key]int) (ordered.Key, int, bool) {
	var best ordered.Key
	var val int
	found := false
	for k, v := range m {
		if !found || k.Less(best) {
			best, val, found = k, v, true
		}
	}
	return best, val, found
}

func modelExtract(m map[ordered.Key]int, max hlc.Timestamp) []int {
	var keys []ordered.Key
	for k := range m {
		if k.TS <= max {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	out := make([]int, len(keys))
	for i, k := range keys {
		out[i] = m[k]
		delete(m, k)
	}
	return out
}

// testStabilizationPattern replays Eunomia's actual access pattern:
// interleaved multi-partition inserts with rising timestamps and periodic
// stable-prefix extraction.
func testStabilizationPattern(t *testing.T, s ordered.Set[int]) {
	r := rand.New(rand.NewSource(11))
	const partitions = 8
	watermark := make([]uint64, partitions)
	total := 0
	extracted := 0
	for round := 0; round < 200; round++ {
		for p := 0; p < partitions; p++ {
			n := r.Intn(5)
			for i := 0; i < n; i++ {
				watermark[p] += uint64(1 + r.Intn(3))
				s.Insert(key(watermark[p], int32(p), uint64(total)), total)
				total++
			}
		}
		stable := watermark[0]
		for _, w := range watermark[1:] {
			if w < stable {
				stable = w
			}
		}
		batch := s.ExtractUpTo(hlc.Timestamp(stable))
		extracted += len(batch)
	}
	rest := s.ExtractUpTo(1 << 62)
	if extracted+len(rest) != total {
		t.Fatalf("lost operations: %d extracted + %d rest != %d total",
			extracted, len(rest), total)
	}
}
