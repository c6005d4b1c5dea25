package runs

import (
	"testing"

	"eunomia/internal/hlc"
	"eunomia/internal/ordered"
)

// TestRunShrinksAfterStall: while one stream is silent the stable time
// stays put and another run grows to a stall's worth of entries. Once the
// stall drains and traffic is back to a few entries per extraction, the
// grown run's array shrinks to the size of that traffic, and nothing is
// lost or reordered on the way.
func TestRunShrinksAfterStall(t *testing.T) {
	s := New[uint64]()
	ts, next := uint64(0), uint64(1)
	insert := func(p int32) {
		ts++
		s.Insert(ordered.Key{TS: hlc.Timestamp(ts), Partition: p, Seq: ts}, ts)
	}
	extract := func(max uint64) {
		t.Helper()
		for _, v := range s.ExtractUpTo(hlc.Timestamp(max)) {
			if v != next {
				t.Fatalf("extracted %d, want %d", v, next)
			}
			next++
		}
	}
	const stall = 100_000
	for i := 0; i < stall; i++ {
		insert(0)
	}
	extract(ts)
	if peak := cap(s.runs[0].items); peak < stall {
		t.Fatalf("run array holds %d slots after a %d-entry stall", peak, stall)
	}
	for r := 0; r < 4; r++ {
		for i := 0; i < 16; i++ {
			insert(0)
			insert(1)
		}
		extract(ts - 6) // the newest entries stay pending across rounds
	}
	if c := cap(s.runs[0].items); c > shrinkFloor {
		t.Fatalf("run array holds %d slots after the stall drained, want at most %d", c, shrinkFloor)
	}
	extract(ts)
	if next != ts+1 || s.Len() != 0 {
		t.Fatalf("extracted %d of %d entries, Len %d", next-1, ts, s.Len())
	}
}
