package fabric

// Zero-reflection wire codecs (internal/wire) for the partition↔Eunomia
// protocol messages. Field order is the versioning contract for each
// type's tag: append new fields at the end behind the existing ones and
// bump nothing; reordering or retyping a field means a new tag.

import (
	"eunomia/internal/types"
	"eunomia/internal/wire"
)

// WireTag implements wire.Marshaler.
func (m BatchMsg) WireTag() wire.Tag { return wire.TagBatch }

// AppendWire implements wire.Marshaler.
func (m BatchMsg) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, m.ID)
	b = wire.AppendUvarint(b, uint64(m.Partition))
	return wire.AppendUpdates(b, m.Ops)
}

// WireTag implements wire.Marshaler.
func (m HeartbeatMsg) WireTag() wire.Tag { return wire.TagHeartbeat }

// AppendWire implements wire.Marshaler.
func (m HeartbeatMsg) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, m.ID)
	b = wire.AppendUvarint(b, uint64(m.Partition))
	b = wire.AppendTimestamp(b, m.TS)
	return wire.AppendTimestamp(b, m.Base)
}

// WireTag implements wire.Marshaler.
func (m AckMsg) WireTag() wire.Tag { return wire.TagAck }

// AppendWire implements wire.Marshaler.
func (m AckMsg) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, m.ID)
	b = wire.AppendUvarint(b, uint64(m.Partition))
	b = wire.AppendTimestamp(b, m.Watermark)
	return wire.AppendString(b, m.Err)
}

// WireTag implements wire.Marshaler.
func (m MultiBatchMsg) WireTag() wire.Tag { return wire.TagMultiBatch }

// AppendWire implements wire.Marshaler.
func (m MultiBatchMsg) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, m.ID)
	b = wire.AppendPartitionBatches(b, m.Batches)
	return wire.AppendPartitionMarks(b, m.Marks)
}

// WireTag implements wire.Marshaler.
func (m MultiAckMsg) WireTag() wire.Tag { return wire.TagMultiAck }

// AppendWire implements wire.Marshaler.
func (m MultiAckMsg) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, m.ID)
	b = wire.AppendPartitionMarks(b, m.Acks)
	return wire.AppendString(b, m.Err)
}

func init() {
	wire.Register(wire.TagBatch, func(d *wire.Dec) any {
		return BatchMsg{
			ID:        d.Uvarint(),
			Partition: types.PartitionID(d.Uvarint()),
			Ops:       wire.ReadUpdates(d),
		}
	})
	wire.Register(wire.TagHeartbeat, func(d *wire.Dec) any {
		return HeartbeatMsg{
			ID:        d.Uvarint(),
			Partition: types.PartitionID(d.Uvarint()),
			TS:        d.Timestamp(),
			Base:      d.Timestamp(),
		}
	})
	wire.Register(wire.TagAck, func(d *wire.Dec) any {
		return AckMsg{
			ID:        d.Uvarint(),
			Partition: types.PartitionID(d.Uvarint()),
			Watermark: d.Timestamp(),
			Err:       d.String(),
		}
	})
	wire.Register(wire.TagMultiBatch, func(d *wire.Dec) any {
		return MultiBatchMsg{
			ID:      d.Uvarint(),
			Batches: wire.ReadPartitionBatches(d),
			Marks:   wire.ReadPartitionMarks(d),
		}
	})
	wire.Register(wire.TagMultiAck, func(d *wire.Dec) any {
		return MultiAckMsg{
			ID:   d.Uvarint(),
			Acks: wire.ReadPartitionMarks(d),
			Err:  d.String(),
		}
	})
}

// The compiler checks the payload structs against the codec interface.
var (
	_ wire.Marshaler = BatchMsg{}
	_ wire.Marshaler = HeartbeatMsg{}
	_ wire.Marshaler = AckMsg{}
	_ wire.Marshaler = MultiBatchMsg{}
	_ wire.Marshaler = MultiAckMsg{}
)
