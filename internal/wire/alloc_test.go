package wire_test

// Steady-state allocation guards: the whole point of the wire codec is
// that hot-path encodes stop allocating. These tests pin that property in
// CI — a regression that re-inflates the encode path fails here instead
// of silently shifting the benchmarks.

import (
	"bytes"
	"testing"

	"eunomia/internal/fabric"
	"eunomia/internal/geostore"
	"eunomia/internal/hlc"
	"eunomia/internal/types"
	"eunomia/internal/vclock"
	"eunomia/internal/wire"
)

func allocUpdate(seq uint64) *types.Update {
	return &types.Update{
		Key:       "alloc-test-key",
		Value:     bytes.Repeat([]byte{0x5a}, 100),
		Origin:    1,
		Partition: 2,
		Seq:       seq,
		TS:        hlc.Timestamp(80e12)<<16 | 1,
		VTS:       vclock.V{hlc.Timestamp(79e12) << 16, hlc.Timestamp(80e12)<<16 | 1, 0},
		CreatedAt: 1753900000000000000,
	}
}

// streamFrame is one partition's flush as its conn sends it: the
// operations over a base, with the stream's mark.
func streamFrame(ops []*types.Update) fabric.MultiBatchMsg {
	return fabric.MultiBatchMsg{Batches: []types.PartitionBatch{
		{Partition: 2, Base: ops[0].TS - 1, Ops: ops, Mark: ops[len(ops)-1].TS + 1},
	}}
}

// TestSteadyStateEncodeAllocs drives the pooled encode path the
// transport's frame writer uses for each hot message type: once the
// pooled buffer has grown to size, an encode may allocate at most once
// (the pool's bookkeeping), never per-field or per-update.
func TestSteadyStateEncodeAllocs(t *testing.T) {
	batch := []*types.Update{allocUpdate(1), allocUpdate(2), allocUpdate(3), allocUpdate(4)}
	cases := []struct {
		name    string
		payload any
	}{
		{"MultiBatchMsg", streamFrame(batch)},
		{"ReleaseMsg", geostore.ReleaseMsg{Epoch: 3, Seq: 77, Us: []*types.Update{allocUpdate(5)}, Arrived: []int64{1753900000000000000}}},
		{"ShipMsg", geostore.ShipMsg{Origin: 1, Ops: batch}},
		{"Updates", batch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Warm the pool so the buffer has its steady-state capacity.
			b, err := wire.AppendPayload(wire.GetBuf(), tc.payload)
			if err != nil {
				t.Fatal(err)
			}
			wire.PutBuf(b)

			allocs := testing.AllocsPerRun(200, func() {
				buf := wire.GetBuf()
				buf, _ = wire.AppendPayload(buf, tc.payload)
				wire.PutBuf(buf)
			})
			if allocs > 1 {
				t.Fatalf("steady-state encode of %s allocates %.1f times per op, want <= 1 (pool bookkeeping only)", tc.name, allocs)
			}
		})
	}
}

// TestReusedBufferEncodeAllocsZero pins the tighter property the frame
// writer actually relies on: appending into an owned, already-grown
// buffer allocates nothing at all.
func TestReusedBufferEncodeAllocsZero(t *testing.T) {
	// Box the payload once, as the transport does (frame.Payload is
	// already an interface by the time the frame writer encodes it).
	var msg any = streamFrame([]*types.Update{allocUpdate(1), allocUpdate(2)})
	buf, err := wire.AppendPayload(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		buf, _ = wire.AppendPayload(buf[:0], msg)
	})
	if allocs != 0 {
		t.Fatalf("encode into an owned grown buffer allocates %.1f times per op, want 0", allocs)
	}
}
