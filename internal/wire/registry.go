package wire

import (
	"fmt"
	"sync"

	"eunomia/internal/types"
)

// Tag identifies a payload type on the wire. Tags are allocated centrally
// here — the registry is the versioning contract (DESIGN.md "The wire
// format"): a tag is forever bound to one message's field order, new
// messages take new tags, and removed messages retire their tag rather
// than free it.
type Tag uint16

const (
	// TagUpdates is []*types.Update, the payload-replication batch every
	// deployment ships; encoded by this package itself.
	TagUpdates Tag = 1

	// internal/fabric: the partition↔Eunomia protocol before the stream
	// frame (TagMultiBatch) carried every flush. All three are retired:
	// TagBatch carried a batch without a base, which a replica ingested
	// over a gap; TagHeartbeatV1 a heartbeat without a base, which a
	// replica adopted unconditionally; TagAck their per-stream reply. No
	// decoder is registered for them, so a frame carrying any is corrupt.
	TagBatch       Tag = 2
	TagHeartbeatV1 Tag = 3
	TagAck         Tag = 4

	// internal/geostore: shipping, payload healing, and the windowed
	// release stream.
	TagShip Tag = 5
	// TagApply and TagApplyAck are retired: they carried the blocking
	// one-update-per-round-trip release (ApplyMsg/ApplyAckMsg) that the
	// windowed release stream replaced. No decoder is registered for
	// them, so a frame carrying either is corrupt; the numbers stay
	// bound to the retired messages and are never reused.
	TagApply             Tag = 6
	TagApplyAck          Tag = 7
	TagPayloadPull       Tag = 8
	TagPayloadSuperseded Tag = 9
	// TagReleaseV1 is retired: it carried one release per frame, where
	// TagRelease carries a run. No decoder is registered for it.
	TagReleaseV1  Tag = 10
	TagReleaseAck Tag = 11

	// internal/sequencer: the number-service round trip.
	TagNext    Tag = 12
	TagNextAck Tag = 13

	// internal/globalstab: sibling stabilization heartbeats.
	TagStabHeartbeat Tag = 14

	// internal/harness: retired. The ping and its reply of a benchmark
	// that pitted the pipelined conn against a request/response protocol
	// the fabric no longer has. No decoder is registered for them.
	TagBenchPing Tag = 15
	TagBenchPong Tag = 16

	// internal/fabric: retired. The first propagation-tree frame and its
	// reply: batches without a base, heartbeats in a separate list, and
	// an ID nothing read. TagMultiBatch and TagMultiAck replace them.
	TagMultiBatchV1 Tag = 17
	TagMultiAckV1   Tag = 18

	// internal/geostore: the client front door — causal get/put round
	// trips between a frontend and its datacenter's partitions, plus the
	// migration visibility wait against the receiver.
	TagClientRead     Tag = 19
	TagClientReadAck  Tag = 20
	TagClientWrite    Tag = 21
	TagClientWriteAck Tag = 22
	TagWait           Tag = 23
	TagWaitAck        Tag = 24

	// internal/geostore: snapshot shipping — a bootstrapping partition
	// pulls a pinned, chunked, compressed snapshot from a live peer
	// datacenter instead of replaying history.
	TagSnapshotRequest Tag = 25
	TagSnapshotChunk   Tag = 26

	// internal/fabric: retired. A partition's watermark with the base a
	// replica had to hold before adopting it, sent behind the flush's
	// TagBatch; the stream frame's entries carry both.
	TagHeartbeat Tag = 27

	// internal/fabric: the stream frame — every flush of one or many
	// partition streams, each entry a batch with its base and mark — on
	// the partition→Eunomia hop and every propagation-tree hop, and its
	// per-stream watermark reply.
	TagMultiBatch Tag = 28
	TagMultiAck   Tag = 29

	// internal/geostore: a run of releases on the windowed release
	// stream.
	TagRelease Tag = 30

	// TagTest is reserved for package test payloads.
	TagTest Tag = 1000
)

// Marshaler is implemented by every protocol payload that travels a
// networked fabric: a stable type tag plus an append-based encoder.
// Implementations live next to the type declarations and register a
// matching decoder with Register from an init function in the same
// package.
type Marshaler interface {
	// WireTag returns the payload's registered tag.
	WireTag() Tag
	// AppendWire appends the payload's encoding to b and returns the
	// extended slice. It must not retain b.
	AppendWire(b []byte) []byte
}

var (
	regMu    sync.RWMutex
	decoders = map[Tag]func(*Dec) any{
		TagUpdates: func(d *Dec) any { return ReadUpdates(d) },
	}
)

// Register installs the decoder for a payload tag. It is meant for init
// functions; reusing a live tag panics, because two
// types decoding one tag is a protocol bug, not a configuration.
func Register(tag Tag, decode func(*Dec) any) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := decoders[tag]; dup {
		panic(fmt.Sprintf("wire: duplicate payload tag %d", tag))
	}
	decoders[tag] = decode
}

// AppendPayload appends a type-tagged payload encoding to b: uvarint tag,
// then the payload body. Payload types must implement Marshaler (or be
// []*types.Update, which this package encodes itself); anything else is a
// permanent encode error.
func AppendPayload(b []byte, payload any) ([]byte, error) {
	switch p := payload.(type) {
	case Marshaler:
		b = AppendUvarint(b, uint64(p.WireTag()))
		return p.AppendWire(b), nil
	case []*types.Update:
		b = AppendUvarint(b, uint64(TagUpdates))
		return AppendUpdates(b, p), nil
	}
	return b, fmt.Errorf("wire: payload type %T not registered (implement wire.Marshaler)", payload)
}

// ReadPayload decodes one type-tagged payload at the cursor. Unknown tags
// and malformed bodies report ErrCorrupt-wrapped errors; the caller owns
// framing, so it decides whether that tears down a connection.
func ReadPayload(d *Dec) (any, error) {
	tag := Tag(d.Uvarint())
	if d.Err() != nil {
		return nil, fmt.Errorf("%w: payload tag", ErrCorrupt)
	}
	regMu.RLock()
	decode := decoders[tag]
	regMu.RUnlock()
	if decode == nil {
		return nil, fmt.Errorf("%w: unknown payload tag %d", ErrCorrupt, tag)
	}
	v := decode(d)
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("payload tag %d: %w", tag, err)
	}
	return v, nil
}
