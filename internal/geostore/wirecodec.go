package geostore

// Zero-reflection wire codecs (internal/wire) for the geo-replication
// messages: shipping, payload healing, the windowed release stream, and
// the client front door. Field order is each tag's versioning
// contract — append new fields, never reorder (DESIGN.md "The wire
// format").

import (
	"eunomia/internal/types"
	"eunomia/internal/wire"
)

// appendUpdatePtr encodes an optional update pointer: a presence byte,
// then the record. The messages carrying one (*Update) never send nil in
// practice, but a codec that panics on an impossible value is a worse
// deal than one byte.
func appendUpdatePtr(b []byte, u *types.Update) []byte {
	b = wire.AppendBool(b, u != nil)
	if u != nil {
		b = wire.AppendUpdate(b, u)
	}
	return b
}

func readUpdatePtr(d *wire.Dec) *types.Update {
	if !d.Bool() {
		return nil
	}
	return wire.ReadUpdate(d)
}

// WireTag implements wire.Marshaler.
func (m ShipMsg) WireTag() wire.Tag { return wire.TagShip }

// AppendWire implements wire.Marshaler.
func (m ShipMsg) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(m.Origin))
	return wire.AppendUpdates(b, m.Ops)
}

// WireTag implements wire.Marshaler.
func (m PayloadPullMsg) WireTag() wire.Tag { return wire.TagPayloadPull }

// AppendWire implements wire.Marshaler.
func (m PayloadPullMsg) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(m.Dest))
	return appendUpdatePtr(b, m.U)
}

// WireTag implements wire.Marshaler.
func (m PayloadSupersededMsg) WireTag() wire.Tag { return wire.TagPayloadSuperseded }

// AppendWire implements wire.Marshaler.
func (m PayloadSupersededMsg) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(m.ID.Origin))
	b = wire.AppendTimestamp(b, m.ID.TS)
	return wire.AppendString(b, string(m.ID.Key))
}

// WireTag implements wire.Marshaler.
func (m ReleaseMsg) WireTag() wire.Tag { return wire.TagRelease }

// AppendWire implements wire.Marshaler. Epoch and the arrival instants
// are UnixNano instants, so they ride fixed-width per the codec
// convention (a uvarint would cost 9 bytes).
func (m ReleaseMsg) AppendWire(b []byte) []byte {
	b = wire.AppendUint64(b, m.Epoch)
	b = wire.AppendUvarint(b, m.Seq)
	b = wire.AppendUpdates(b, m.Us)
	for _, at := range m.Arrived {
		b = wire.AppendUint64(b, uint64(at))
	}
	return b
}

// WireTag implements wire.Marshaler.
func (m ReleaseAckMsg) WireTag() wire.Tag { return wire.TagReleaseAck }

// AppendWire implements wire.Marshaler. Epoch rides fixed-width like
// every UnixNano instant.
func (m ReleaseAckMsg) AppendWire(b []byte) []byte {
	b = wire.AppendUint64(b, m.Epoch)
	b = wire.AppendUvarint(b, m.Cum)
	b = wire.AppendUvarint(b, m.Durable)
	b = wire.AppendUvarint(b, m.Admitted)
	return wire.AppendBool(b, m.NeedReset)
}

// WireTag implements wire.Marshaler.
func (m ClientReadMsg) WireTag() wire.Tag { return wire.TagClientRead }

// AppendWire implements wire.Marshaler.
func (m ClientReadMsg) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, m.ID)
	return wire.AppendString(b, string(m.Key))
}

// WireTag implements wire.Marshaler.
func (m ClientReadAckMsg) WireTag() wire.Tag { return wire.TagClientReadAck }

// AppendWire implements wire.Marshaler.
func (m ClientReadAckMsg) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, m.ID)
	b = wire.AppendBool(b, m.Found)
	b = wire.AppendBytes(b, m.Value)
	return wire.AppendVClock(b, m.VTS)
}

// WireTag implements wire.Marshaler.
func (m ClientWriteMsg) WireTag() wire.Tag { return wire.TagClientWrite }

// AppendWire implements wire.Marshaler.
func (m ClientWriteMsg) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, m.ID)
	b = wire.AppendString(b, string(m.Key))
	b = wire.AppendBytes(b, m.Value)
	return wire.AppendVClock(b, m.Dep)
}

// WireTag implements wire.Marshaler.
func (m ClientWriteAckMsg) WireTag() wire.Tag { return wire.TagClientWriteAck }

// AppendWire implements wire.Marshaler.
func (m ClientWriteAckMsg) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, m.ID)
	return wire.AppendVClock(b, m.VTS)
}

// WireTag implements wire.Marshaler.
func (m WaitMsg) WireTag() wire.Tag { return wire.TagWait }

// AppendWire implements wire.Marshaler. WaitNanos is a duration, not an
// instant, but it rides fixed-width like every other 64-bit time field.
func (m WaitMsg) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, m.ID)
	b = wire.AppendVClock(b, m.Dep)
	return wire.AppendUint64(b, uint64(m.WaitNanos))
}

// WireTag implements wire.Marshaler.
func (m WaitAckMsg) WireTag() wire.Tag { return wire.TagWaitAck }

// AppendWire implements wire.Marshaler.
func (m WaitAckMsg) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, m.ID)
	b = wire.AppendBool(b, m.OK)
	return wire.AppendVClock(b, m.Site)
}

func init() {
	wire.Register(wire.TagShip, func(d *wire.Dec) any {
		return ShipMsg{Origin: types.DCID(d.Uvarint()), Ops: wire.ReadUpdates(d)}
	})
	wire.Register(wire.TagPayloadPull, func(d *wire.Dec) any {
		return PayloadPullMsg{Dest: types.DCID(d.Uvarint()), U: readUpdatePtr(d)}
	})
	wire.Register(wire.TagPayloadSuperseded, func(d *wire.Dec) any {
		return PayloadSupersededMsg{ID: types.UpdateID{
			Origin: types.DCID(d.Uvarint()),
			TS:     d.Timestamp(),
			Key:    types.Key(d.String()),
		}}
	})
	wire.Register(wire.TagRelease, func(d *wire.Dec) any {
		m := ReleaseMsg{Epoch: d.Uint64(), Seq: d.Uvarint(), Us: wire.ReadUpdates(d)}
		m.Arrived = make([]int64, len(m.Us))
		for i := range m.Arrived {
			m.Arrived[i] = int64(d.Uint64())
		}
		return m
	})
	wire.Register(wire.TagReleaseAck, func(d *wire.Dec) any {
		return ReleaseAckMsg{
			Epoch:     d.Uint64(),
			Cum:       d.Uvarint(),
			Durable:   d.Uvarint(),
			Admitted:  d.Uvarint(),
			NeedReset: d.Bool(),
		}
	})
	wire.Register(wire.TagClientRead, func(d *wire.Dec) any {
		return ClientReadMsg{ID: d.Uvarint(), Key: types.Key(d.String())}
	})
	wire.Register(wire.TagClientReadAck, func(d *wire.Dec) any {
		return ClientReadAckMsg{
			ID:    d.Uvarint(),
			Found: d.Bool(),
			Value: types.Value(d.Bytes()),
			VTS:   d.VClock(),
		}
	})
	wire.Register(wire.TagClientWrite, func(d *wire.Dec) any {
		return ClientWriteMsg{
			ID:    d.Uvarint(),
			Key:   types.Key(d.String()),
			Value: types.Value(d.Bytes()),
			Dep:   d.VClock(),
		}
	})
	wire.Register(wire.TagClientWriteAck, func(d *wire.Dec) any {
		return ClientWriteAckMsg{ID: d.Uvarint(), VTS: d.VClock()}
	})
	wire.Register(wire.TagWait, func(d *wire.Dec) any {
		return WaitMsg{ID: d.Uvarint(), Dep: d.VClock(), WaitNanos: int64(d.Uint64())}
	})
	wire.Register(wire.TagWaitAck, func(d *wire.Dec) any {
		return WaitAckMsg{ID: d.Uvarint(), OK: d.Bool(), Site: d.VClock()}
	})
}

var (
	_ wire.Marshaler = ShipMsg{}
	_ wire.Marshaler = PayloadPullMsg{}
	_ wire.Marshaler = PayloadSupersededMsg{}
	_ wire.Marshaler = ReleaseMsg{}
	_ wire.Marshaler = ReleaseAckMsg{}
	_ wire.Marshaler = ClientReadMsg{}
	_ wire.Marshaler = ClientReadAckMsg{}
	_ wire.Marshaler = ClientWriteMsg{}
	_ wire.Marshaler = ClientWriteAckMsg{}
	_ wire.Marshaler = WaitMsg{}
	_ wire.Marshaler = WaitAckMsg{}
)
