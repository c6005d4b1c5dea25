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
// (TagApply, TagApplyAck), the one-update release (TagReleaseV1), the
// heartbeat without a base (TagHeartbeatV1), and the stream protocol
// before the stream frame — batch, heartbeat with a base, and ack
// (TagBatch, TagHeartbeat, TagAck), and the first merged frame and its
// reply (TagMultiBatchV1, TagMultiAckV1).
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
	batch := wire.AppendUvarint(nil, uint64(wire.TagBatch))
	batch = wire.AppendUvarint(batch, 1) // ID
	batch = wire.AppendUvarint(batch, 2) // partition
	batch = wire.AppendUvarint(batch, 0) // no operations
	baseHB := wire.AppendUvarint(nil, uint64(wire.TagHeartbeat))
	baseHB = wire.AppendUvarint(baseHB, 1)   // ID
	baseHB = wire.AppendUvarint(baseHB, 2)   // partition
	baseHB = wire.AppendTimestamp(baseHB, 4) // watermark
	baseHB = wire.AppendTimestamp(baseHB, 3) // base
	streamAck := wire.AppendUvarint(nil, uint64(wire.TagAck))
	streamAck = wire.AppendUvarint(streamAck, 1)   // ID
	streamAck = wire.AppendUvarint(streamAck, 2)   // partition
	streamAck = wire.AppendTimestamp(streamAck, 3) // watermark
	streamAck = wire.AppendString(streamAck, "")   // no error
	multi := wire.AppendUvarint(nil, uint64(wire.TagMultiBatchV1))
	multi = wire.AppendUvarint(multi, 1) // ID
	multi = wire.AppendUvarint(multi, 0) // no operations
	multi = wire.AppendUvarint(multi, 0) // no streams
	multi = wire.AppendUvarint(multi, 0) // no marks
	multiAck := wire.AppendUvarint(nil, uint64(wire.TagMultiAckV1))
	multiAck = wire.AppendUvarint(multiAck, 1) // ID
	multiAck = wire.AppendUvarint(multiAck, 0) // no acks
	multiAck = wire.AppendString(multiAck, "") // no error
	ping := wire.AppendUvarint(nil, uint64(wire.TagBenchPing))
	ping = wire.AppendUvarint(ping, 1)       // sequence
	ping = wire.AppendBytes(ping, []byte{7}) // data
	pong := wire.AppendUvarint(nil, uint64(wire.TagBenchPong))
	pong = wire.AppendUvarint(pong, 1) // sequence
	release := wire.AppendUvarint(nil, uint64(wire.TagReleaseV1))
	release = wire.AppendUint64(release, 1)   // epoch
	release = wire.AppendUvarint(release, 2)  // sequence
	release = wire.AppendBool(release, false) // no update
	release = wire.AppendUint64(release, 3)   // arrival instant
	return [][]byte{apply, ack, hb, batch, baseHB, streamAck, multi, multiAck, ping, pong, release}
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
	f.Add(fuzzSeed(fabric.MultiBatchMsg{Batches: []types.PartitionBatch{{Partition: 2, Base: u.TS - 1, Ops: []*types.Update{u}, Mark: u.TS + 1}}}))
	f.Add(fuzzSeed(fabric.MultiBatchMsg{Batches: []types.PartitionBatch{{Partition: 2, Mark: u.TS}}})) // base 0, no operations
	f.Add(retiredPayloads()[2])
	f.Add(retiredPayloads()[3])
	f.Add(fuzzSeed(fabric.MultiBatchMsg{Batches: []types.PartitionBatch{
		{Partition: 2, Ops: []*types.Update{u}},
		{Partition: 3, Base: u.TS, Ops: []*types.Update{u.Meta()}, Mark: u.TS + 2},
		{Partition: 4, Mark: u.TS},
	}}))
	f.Add(fuzzSeed(fabric.MultiAckMsg{Acks: []types.PartitionMark{{Partition: 2, TS: u.TS}}, Err: "x"}))
	f.Add(fuzzSeed(geostore.ShipMsg{Origin: 1, Ops: []*types.Update{u}}))
	f.Add(fuzzSeed(geostore.ReleaseMsg{Epoch: 9, Seq: 4, Us: []*types.Update{u, u}, Arrived: []int64{5, 6}}))
	f.Add(fuzzSeed(geostore.ReleaseAckMsg{Epoch: 9, Cum: 4, Durable: 3, Admitted: 5, NeedReset: true}))
	f.Add(retiredPayloads()[0])
	f.Add(retiredPayloads()[6])
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
