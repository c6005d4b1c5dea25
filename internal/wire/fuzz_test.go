package wire_test

// Fuzzing for the wire decoder: arbitrary bytes — truncations, corrupt
// bodies, garbage type tags — must produce errors, never panics or
// over-reads, and anything that does decode must re-encode canonically.
// The imports register every protocol payload tag, so the fuzzer explores
// all decoders, not just the built-in update batch. CI runs this target
// for a short -fuzztime smoke on every push.

import (
	"errors"
	"reflect"
	"testing"

	"eunomia/internal/fabric"
	"eunomia/internal/geostore"
	_ "eunomia/internal/globalstab" // register TagStabHeartbeat
	"eunomia/internal/hlc"
	_ "eunomia/internal/sequencer" // register TagNext/TagNextAck
	"eunomia/internal/types"
	"eunomia/internal/vclock"
	"eunomia/internal/wire"
)

// retiredPayloads are frames only a peer predating the tags' retirement
// sends, in their last layout: the blocking-release request and reply
// (TagApply, TagApplyAck) and the heartbeat without a base
// (TagHeartbeatV1).
func retiredPayloads() [][]byte {
	apply := wire.AppendUvarint(nil, uint64(wire.TagApply))
	apply = wire.AppendUvarint(apply, 1)  // ID
	apply = wire.AppendBool(apply, false) // no update
	apply = wire.AppendUint64(apply, 2)   // arrival instant
	ack := wire.AppendUvarint(nil, uint64(wire.TagApplyAck))
	ack = wire.AppendUvarint(ack, 1) // ID
	ack = wire.AppendBool(ack, true) // OK
	hb := wire.AppendUvarint(nil, uint64(wire.TagHeartbeatV1))
	hb = wire.AppendUvarint(hb, 1)   // ID
	hb = wire.AppendUvarint(hb, 2)   // partition
	hb = wire.AppendTimestamp(hb, 3) // watermark
	return [][]byte{apply, ack, hb}
}

// TestRetiredTagsCorrupt pins the registry's retirement rule with every
// protocol package linked in: no decoder claims a retired tag, so its
// frames are corrupt rather than silently decoded as something else.
func TestRetiredTagsCorrupt(t *testing.T) {
	for _, b := range retiredPayloads() {
		d := wire.NewDec(b)
		if v, err := wire.ReadPayload(&d); !errors.Is(err, wire.ErrCorrupt) {
			t.Fatalf("retired payload decoded as %T (err %v), want ErrCorrupt", v, err)
		}
	}
}

func fuzzSeed(payload any) []byte {
	b, err := wire.AppendPayload(nil, payload)
	if err != nil {
		panic(err)
	}
	return b
}

func FuzzReadPayload(f *testing.F) {
	u := &types.Update{
		Key: "fuzz", Value: []byte("v"), Origin: 1, Partition: 2, Seq: 3,
		TS: hlc.Timestamp(80e12)<<16 | 5, HTS: 7,
		VTS: vclock.V{1, 2, 3}, CreatedAt: 1753900000000000000,
	}
	f.Add(fuzzSeed([]*types.Update{u, u.Meta()}))
	f.Add(fuzzSeed(fabric.BatchMsg{ID: 1, Partition: 2, Ops: []*types.Update{u}}))
	f.Add(fuzzSeed(fabric.HeartbeatMsg{ID: 1, Partition: 2, TS: u.TS, Base: u.TS - 1}))
	f.Add(fuzzSeed(fabric.HeartbeatMsg{ID: 1, Partition: 2, TS: u.TS})) // base 0
	f.Add(retiredPayloads()[2])
	f.Add(fuzzSeed(fabric.AckMsg{ID: 1, Partition: 2, Watermark: u.TS, Err: "x"}))
	f.Add(fuzzSeed(fabric.MultiBatchMsg{
		ID:      1,
		Batches: []types.PartitionBatch{{Partition: 2, Ops: []*types.Update{u}}, {Partition: 3, Ops: []*types.Update{u.Meta()}}},
		Marks:   []types.PartitionMark{{Partition: 4, TS: u.TS}},
	}))
	f.Add(fuzzSeed(fabric.MultiAckMsg{ID: 1, Acks: []types.PartitionMark{{Partition: 2, TS: u.TS}}, Err: "x"}))
	f.Add(fuzzSeed(geostore.ShipMsg{Origin: 1, Ops: []*types.Update{u}}))
	f.Add(fuzzSeed(geostore.ReleaseMsg{Epoch: 9, Seq: 4, U: u, ArrivedUnixNano: 5}))
	f.Add(fuzzSeed(geostore.ReleaseAckMsg{Epoch: 9, Cum: 4, Durable: 3, Admitted: 5, NeedReset: true}))
	f.Add(retiredPayloads()[0])
	f.Add(fuzzSeed(geostore.PayloadPullMsg{Dest: 1, U: u}))
	f.Add(fuzzSeed(geostore.PayloadSupersededMsg{ID: u.ID()}))
	// Hostile shapes: truncated, tag garbage, dishonest lengths.
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(wire.AppendUvarint(nil, 60000))
	f.Add(append(wire.AppendUvarint(nil, 1), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))

	f.Fuzz(func(t *testing.T, data []byte) {
		d := wire.NewDec(data)
		v, err := wire.ReadPayload(&d)
		if err != nil {
			return // corruption detected is the contract
		}
		// Whatever decoded must survive a canonical re-encode round trip.
		b, err := wire.AppendPayload(nil, v)
		if err != nil {
			t.Fatalf("decoded payload %T does not re-encode: %v", v, err)
		}
		d2 := wire.NewDec(b)
		v2, err := wire.ReadPayload(&d2)
		if err != nil || d2.Expect() != nil {
			t.Fatalf("canonical re-encode of %T does not decode: %v", v, err)
		}
		if !reflect.DeepEqual(v, v2) {
			t.Fatalf("re-encode round trip changed the value:\n got %#v\nwant %#v", v2, v)
		}
	})
}
