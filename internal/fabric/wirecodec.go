package fabric

// Zero-reflection wire codecs (internal/wire) for the partition↔Eunomia
// protocol messages. Field order is the versioning contract for each
// type's tag: append new fields at the end behind the existing ones and
// bump nothing; reordering or retyping a field means a new tag.

import (
	"eunomia/internal/wire"
)

// WireTag implements wire.Marshaler.
func (m MultiBatchMsg) WireTag() wire.Tag { return wire.TagMultiBatch }

// AppendWire implements wire.Marshaler.
func (m MultiBatchMsg) AppendWire(b []byte) []byte {
	return wire.AppendPartitionBatches(b, m.Batches)
}

// WireTag implements wire.Marshaler.
func (m MultiAckMsg) WireTag() wire.Tag { return wire.TagMultiAck }

// AppendWire implements wire.Marshaler.
func (m MultiAckMsg) AppendWire(b []byte) []byte {
	b = wire.AppendPartitionMarks(b, m.Acks)
	return wire.AppendString(b, m.Err)
}

func init() {
	wire.Register(wire.TagMultiBatch, func(d *wire.Dec) any {
		return MultiBatchMsg{Batches: wire.ReadPartitionBatches(d)}
	})
	wire.Register(wire.TagMultiAck, func(d *wire.Dec) any {
		return MultiAckMsg{
			Acks: wire.ReadPartitionMarks(d),
			Err:  d.String(),
		}
	})
}

// The compiler checks the payload structs against the codec interface.
var (
	_ wire.Marshaler = MultiBatchMsg{}
	_ wire.Marshaler = MultiAckMsg{}
)
