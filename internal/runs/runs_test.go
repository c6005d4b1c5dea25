package runs_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"eunomia/internal/hlc"
	"eunomia/internal/ordered"
	"eunomia/internal/ordered/orderedtest"
	"eunomia/internal/rbtree"
	"eunomia/internal/runs"
)

func TestConformance(t *testing.T) {
	orderedtest.Run(t, func() ordered.Set[int] { return runs.New[int]() })
}

// TestStreamShapedMatchesRBTree feeds the run set and the red-black tree
// the replica's access pattern — every partition appending above its own
// watermark, many partitions landing on the same timestamps, extractions
// at the running minimum watermark interleaved with the inserts — and
// requires the same extraction order and size after every round.
func TestStreamShapedMatchesRBTree(t *testing.T) {
	for _, partitions := range []int{16, 128} {
		t.Run(fmt.Sprint(partitions), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(partitions)))
			rs, rb := runs.New[int](), rbtree.New[int]()
			watermark := make([]uint64, partitions)
			seq := make([]uint64, partitions)
			id := 0
			for round := 0; round < 400; round++ {
				for p := 0; p < partitions; p++ {
					for n := rng.Intn(6); n > 0; n-- {
						// Small steps on a coarse clock: partitions
						// collide on timestamps all the time.
						watermark[p] += uint64(1 + rng.Intn(2))
						seq[p]++
						k := ordered.Key{TS: hlc.Timestamp(watermark[p]), Partition: int32(p), Seq: seq[p]}
						rs.Insert(k, id)
						rb.Insert(k, id)
						id++
					}
					if rng.Intn(4) == 0 {
						// An extraction between two partitions' flushes,
						// at or just below the stable time.
						stable := minOf(watermark)
						extractBoth(t, rs, rb, hlc.Timestamp(stable-min(stable, uint64(rng.Intn(3)))))
					}
				}
				extractBoth(t, rs, rb, hlc.Timestamp(minOf(watermark)))
			}
			extractBoth(t, rs, rb, hlc.Timestamp(1<<62))
			if rs.Len() != 0 {
				t.Fatalf("Len %d after extracting everything", rs.Len())
			}
		})
	}
}

func extractBoth(t *testing.T, rs *runs.Set[int], rb *rbtree.Tree[int], max hlc.Timestamp) {
	t.Helper()
	got, want := rs.ExtractUpTo(max), rb.ExtractUpTo(max)
	if len(got) != len(want) {
		t.Fatalf("ExtractUpTo(%d): %d entries, rbtree %d", max, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("ExtractUpTo(%d)[%d] = %d, rbtree %d", max, i, got[i], want[i])
		}
	}
	if rs.Len() != rb.Len() {
		t.Fatalf("after ExtractUpTo(%d): Len %d, rbtree %d", max, rs.Len(), rb.Len())
	}
}

func minOf(ws []uint64) uint64 {
	m := ws[0]
	for _, w := range ws[1:] {
		m = min(m, w)
	}
	return m
}

// TestRunsSteadyStateAllocs pins the point of the run set: once each run's
// array has grown to its working size, an insert allocates nothing, while
// extraction leaves part of every run pending between rounds. Only the
// inserts are counted; ExtractUpTo allocates its result.
func TestRunsSteadyStateAllocs(t *testing.T) {
	const partitions, perRound, rounds = 16, 64, 50
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := runs.New[*int]()
	v := new(int)
	ts := uint64(0)
	var mallocs uint64
	for r := 0; r < rounds; r++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < perRound; i++ {
			ts++
			for p := int32(0); p < partitions; p++ {
				s.Insert(ordered.Key{TS: hlc.Timestamp(ts), Partition: p, Seq: ts}, v)
			}
		}
		runtime.ReadMemStats(&after)
		if r >= 2 { // the first rounds grow the runs' arrays
			mallocs += after.Mallocs - before.Mallocs
		}
		// Leave the newest half pending, as a stable time trailing
		// the freshest flushes does.
		s.ExtractUpTo(hlc.Timestamp(ts - perRound/2))
	}
	if mallocs != 0 {
		t.Fatalf("%d allocations over %d steady-state inserts, want 0", mallocs, (rounds-2)*perRound*partitions)
	}
}

func BenchmarkInsertExtract(b *testing.B) {
	s := runs.New[int]()
	const window = 1024
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Insert(ordered.Key{TS: hlc.Timestamp(i), Partition: int32(i % 8), Seq: uint64(i)}, i)
		if i%window == window-1 {
			s.ExtractUpTo(hlc.Timestamp(i - window/2))
		}
	}
}
