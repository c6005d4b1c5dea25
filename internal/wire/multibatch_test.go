package wire

import (
	"reflect"
	"testing"

	"eunomia/internal/hlc"
	"eunomia/internal/types"
)

func testPartitionBatches() []types.PartitionBatch {
	var batches []types.PartitionBatch
	for p := 0; p < 3; p++ {
		var ops []*types.Update
		for i := 0; i < 4; i++ {
			u := testUpdate()
			u.Partition = types.PartitionID(p)
			u.Seq = uint64(i + 1)
			u.TS += hlc.Timestamp(i)
			ops = append(ops, u)
		}
		batches = append(batches, types.PartitionBatch{Partition: types.PartitionID(p), Base: ops[0].TS - 1, Ops: ops, Mark: ops[3].TS + 1})
	}
	// An idle stream's entry: a mark alone.
	return append(batches, types.PartitionBatch{Partition: 3, Mark: testUpdate().TS})
}

func TestPartitionBatchesRoundTrip(t *testing.T) {
	batches := testPartitionBatches()
	b := AppendPartitionBatches(nil, batches)
	d := NewDec(b)
	got := ReadPartitionBatches(&d)
	if err := d.Expect(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, batches) {
		t.Fatalf("multi-batch round-trip:\n got %+v\nwant %+v", got, batches)
	}

	// Empty multi-batch.
	b = AppendPartitionBatches(nil, nil)
	d = NewDec(b)
	if got := ReadPartitionBatches(&d); got != nil || d.Expect() != nil {
		t.Fatalf("empty multi-batch decoded as %v (%v)", got, d.Err())
	}
}

func TestPartitionMarksRoundTrip(t *testing.T) {
	marks := []types.PartitionMark{
		{Partition: 0, TS: 0},
		{Partition: 7, TS: hlc.Timestamp(80e12)<<16 | 3},
		{Partition: 127, TS: hlc.Timestamp(1) << 16},
	}
	b := AppendPartitionMarks(nil, marks)
	d := NewDec(b)
	got := ReadPartitionMarks(&d)
	if err := d.Expect(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, marks) {
		t.Fatalf("marks round-trip: got %+v want %+v", got, marks)
	}

	b = AppendPartitionMarks(nil, nil)
	d = NewDec(b)
	if got := ReadPartitionMarks(&d); got != nil || d.Expect() != nil {
		t.Fatalf("empty marks decoded as %v (%v)", got, d.Err())
	}
}

// TestPartitionBatchesStrictness drives corrupt multi-batch encodings
// through the decoder: truncations, hostile counts, and a declared total
// that disagrees with the per-stream counts must all error, never panic.
func TestPartitionBatchesStrictness(t *testing.T) {
	full := AppendPartitionBatches(nil, testPartitionBatches())
	for n := 0; n < len(full); n++ {
		d := NewDec(full[:n])
		if got := ReadPartitionBatches(&d); got != nil && d.Expect() == nil {
			t.Fatalf("truncation at %d/%d decoded successfully", n, len(full))
		}
	}

	// Dishonest total: 2^40 operations claimed on a 3-byte body.
	b := AppendUvarint(nil, 1<<40)
	b = append(b, 1, 0, 0)
	d := NewDec(b)
	if got := ReadPartitionBatches(&d); got != nil || d.Err() == nil {
		t.Fatal("hostile total decoded")
	}

	// Dishonest stream count on an empty remainder.
	b = AppendUvarint(nil, 0)
	b = AppendUvarint(b, 1<<30)
	d = NewDec(b)
	if got := ReadPartitionBatches(&d); got != nil || d.Err() == nil {
		t.Fatal("hostile stream count decoded")
	}

	// Declared total larger than the per-stream counts deliver.
	b = AppendUvarint(nil, 5) // total claims 5
	b = AppendUvarint(b, 1)   // one stream...
	b = AppendUvarint(b, 0)   // partition 0
	b = AppendTimestamp(b, 0) // base
	b = AppendTimestamp(b, 0) // mark
	b = AppendUvarint(b, 1)   // ...of one op
	b = AppendUpdate(b, testUpdate())
	d = NewDec(b)
	if got := ReadPartitionBatches(&d); got != nil || d.Err() == nil {
		t.Fatal("total/stream-count disagreement decoded")
	}

	// Per-stream counts overflowing the declared total.
	b = AppendUvarint(nil, 1) // total claims 1
	b = AppendUvarint(b, 1)
	b = AppendUvarint(b, 0)
	b = AppendTimestamp(b, 0)
	b = AppendTimestamp(b, 0)
	b = AppendUvarint(b, 2) // ...but the stream claims 2
	b = AppendUpdate(b, testUpdate())
	b = AppendUpdate(b, testUpdate())
	d = NewDec(b)
	if got := ReadPartitionBatches(&d); got != nil || d.Err() == nil {
		t.Fatal("stream overflow of the declared total decoded")
	}
}

// arenaUpdate builds an update whose only allocation-bearing field is the
// value, so the decode guards below measure exactly the value-arena
// property (keys and vector clocks allocate per record by design).
func arenaUpdate(p types.PartitionID, seq uint64, val byte) *types.Update {
	v := make([]byte, 64)
	for i := range v {
		v[i] = val
	}
	return &types.Update{
		Value:     v,
		Origin:    1,
		Partition: p,
		Seq:       seq,
		TS:        hlc.Timestamp(80e12)<<16 | hlc.Timestamp(seq),
		CreatedAt: 1753900000000000000,
	}
}

// TestBatchDecodeValueArenaAllocs pins the PR's decode property: all the
// values of a decoded batch share one backing allocation, so a 64-update
// batch costs a fixed number of allocations — the pointer slab, the
// update block, and the arena — not one per value.
func TestBatchDecodeValueArenaAllocs(t *testing.T) {
	var ops []*types.Update
	for i := 0; i < 64; i++ {
		ops = append(ops, arenaUpdate(2, uint64(i+1), byte(i)))
	}
	buf := AppendUpdates(nil, ops)
	allocs := testing.AllocsPerRun(100, func() {
		d := NewDec(buf)
		if got := ReadUpdates(&d); len(got) != 64 || d.Expect() != nil {
			t.Fatalf("decode failed: %d ops, %v", len(got), d.Err())
		}
	})
	if allocs > 3 {
		t.Fatalf("batch decode allocates %.1f times per op-batch, want <= 3 (pointer slab, update block, value arena)", allocs)
	}
}

// TestMetaBatchDecodeNoArenaAlloc pins the lazy half of the arena
// contract: a metadata-only batch (nil values — the hottest fabric
// frames, §5 separated records) must not pay for an arena it never
// carves from. Two allocations: the pointer slab and the update block.
func TestMetaBatchDecodeNoArenaAlloc(t *testing.T) {
	var ops []*types.Update
	for i := 0; i < 64; i++ {
		u := arenaUpdate(2, uint64(i+1), 0)
		u.Value = nil
		ops = append(ops, u)
	}
	buf := AppendUpdates(nil, ops)
	allocs := testing.AllocsPerRun(100, func() {
		d := NewDec(buf)
		if got := ReadUpdates(&d); len(got) != 64 || d.Expect() != nil {
			t.Fatalf("decode failed: %d ops, %v", len(got), d.Err())
		}
	})
	if allocs > 2 {
		t.Fatalf("metadata-only batch decode allocates %.1f times, want <= 2 (no value arena)", allocs)
	}
}

// TestMultiBatchDecodeAllocs pins the same property across a whole
// multi-stream frame: one update block, one pointer slab, one stream
// slice, and one value arena regardless of stream count.
func TestMultiBatchDecodeAllocs(t *testing.T) {
	var batches []types.PartitionBatch
	for p := 0; p < 8; p++ {
		var ops []*types.Update
		for i := 0; i < 8; i++ {
			ops = append(ops, arenaUpdate(types.PartitionID(p), uint64(i+1), byte(p)))
		}
		batches = append(batches, types.PartitionBatch{Partition: types.PartitionID(p), Ops: ops})
	}
	buf := AppendPartitionBatches(nil, batches)
	allocs := testing.AllocsPerRun(100, func() {
		d := NewDec(buf)
		if got := ReadPartitionBatches(&d); len(got) != 8 || d.Expect() != nil {
			t.Fatalf("decode failed: %d streams, %v", len(got), d.Err())
		}
	})
	if allocs > 4 {
		t.Fatalf("multi-batch decode allocates %.1f times per frame, want <= 4 (stream slice, pointer slab, update block, value arena)", allocs)
	}
}

// TestValueArenaIsolation verifies decoded values do not alias each other
// or the input: mutating one decoded value must not corrupt its
// neighbors, and mutating the input must not change decoded values.
func TestValueArenaIsolation(t *testing.T) {
	ops := []*types.Update{arenaUpdate(0, 1, 0xaa), arenaUpdate(0, 2, 0xbb)}
	buf := AppendUpdates(nil, ops)
	d := NewDec(buf)
	got := ReadUpdates(&d)
	if d.Expect() != nil || len(got) != 2 {
		t.Fatal("decode failed")
	}
	for i := range got[0].Value {
		got[0].Value[i] = 0x11
	}
	buf[len(buf)-1] ^= 0xff
	for _, b := range got[1].Value {
		if b != 0xbb {
			t.Fatalf("neighbor value corrupted: %x", got[1].Value)
		}
	}
	// Appending to one value must not grow into the next one's storage.
	if v := append(got[0].Value, 0x22); len(v) != 65 {
		t.Fatalf("append length %d", len(v))
	}
	for _, b := range got[1].Value {
		if b != 0xbb {
			t.Fatalf("append into arena corrupted neighbor: %x", got[1].Value)
		}
	}
}
