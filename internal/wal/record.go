package wal

import (
	"errors"
	"fmt"

	"eunomia/internal/hlc"
	"eunomia/internal/types"
	"eunomia/internal/wire"
)

// Record kinds distinguish local acceptances from remote applications so
// recovery can rebuild per-partition sequence counters.
const (
	// KindLocal marks an update accepted from a local client.
	KindLocal byte = 1
	// KindRemote marks a remote update applied via the receiver.
	KindRemote byte = 2
	// KindMarks is a partition counters record (snapshot compaction):
	// local sequence counter, clock floor, per-origin applied watermarks.
	KindMarks byte = 3
	// KindStream is a release-stream position record: the (sender epoch,
	// sequence) watermark durably applied by a partition group's
	// applier.
	KindStream byte = 4
	// KindPending marks an update enqueued at a receiver but not yet
	// durably applied (EncodeUpdate framing).
	KindPending byte = 5
	// KindSite is a receiver site-watermark record: origin datacenter and
	// the highest origin timestamp durably applied locally.
	KindSite byte = 6
	// KindPayload marks a payload received via §5 data/metadata
	// separation, buffered but not yet released (EncodeUpdate framing).
	// Without it a crash loses every buffered payload — the sibling that
	// shipped it pruned it once the transport acknowledged delivery.
	KindPayload byte = 7
	// KindSkip marks a remote update whose payload was lost to a crash
	// and whose origin reported it superseded: the applied watermark
	// advances, nothing is stored (EncodeUpdate framing, no value).
	KindSkip byte = 8
)

// ErrBadRecord reports a structurally invalid update record.
var ErrBadRecord = errors.New("wal: bad update record")

// EncodeUpdate serialises an update into a compact binary record: the
// kind byte followed by the shared wire-codec update layout
// (internal/wire) — the same varint/compact-timestamp encoding the TCP
// frames use, so the bytes that hit the fsync path shrink with the
// bytes that hit the sockets.
func EncodeUpdate(kind byte, u *types.Update) []byte {
	buf := make([]byte, 0, 64+len(u.Key)+len(u.Value)+8*len(u.VTS))
	buf = append(buf, kind)
	return wire.AppendUpdate(buf, u)
}

// DecodeUpdate parses a record produced by EncodeUpdate.
func DecodeUpdate(rec []byte) (kind byte, u *types.Update, err error) {
	if len(rec) < 1 {
		return 0, nil, ErrBadRecord
	}
	kind = rec[0]
	switch kind {
	case KindLocal, KindRemote, KindPending, KindPayload, KindSkip:
	default:
		return 0, nil, fmt.Errorf("%w: kind %d", ErrBadRecord, kind)
	}
	d := wire.NewDec(rec[1:])
	u = wire.ReadUpdate(&d)
	if u == nil || d.Expect() != nil {
		return 0, nil, ErrBadRecord
	}
	return kind, u, nil
}

// Marks is a partition's non-version durable state: the local sequence
// counter, the highest timestamp the hybrid clock must dominate after
// recovery, and the per-origin applied-remote watermarks. Snapshots carry
// it because overwritten versions take their sequence numbers and
// watermark evidence with them.
type Marks struct {
	Seq     uint64
	ClockTS hlc.Timestamp
	Applied map[types.DCID]hlc.Timestamp
}

// EncodeMarks serialises a KindMarks record.
func EncodeMarks(m Marks) []byte {
	buf := make([]byte, 0, 32+len(m.Applied)*12)
	buf = append(buf, KindMarks)
	buf = wire.AppendUvarint(buf, m.Seq)
	buf = wire.AppendTimestamp(buf, m.ClockTS)
	buf = wire.AppendUvarint(buf, uint64(len(m.Applied)))
	for origin, ts := range m.Applied {
		buf = wire.AppendUvarint(buf, uint64(origin))
		buf = wire.AppendTimestamp(buf, ts)
	}
	return buf
}

// DecodeMarks parses a record produced by EncodeMarks.
func DecodeMarks(rec []byte) (Marks, error) {
	if len(rec) < 1 || rec[0] != KindMarks {
		return Marks{}, ErrBadRecord
	}
	d := wire.NewDec(rec[1:])
	m := Marks{Applied: make(map[types.DCID]hlc.Timestamp)}
	m.Seq = d.Uvarint()
	m.ClockTS = d.Timestamp()
	n := d.Uvarint()
	if n > 1<<16 {
		return Marks{}, ErrBadRecord
	}
	for i := uint64(0); i < n; i++ {
		origin := types.DCID(d.Uvarint())
		m.Applied[origin] = d.Timestamp()
	}
	if d.Expect() != nil {
		return Marks{}, ErrBadRecord
	}
	return m, nil
}

// EncodeStream serialises a KindStream record: the release stream's
// durably applied (sender epoch, sequence) watermark. Epochs are
// UnixNano instants, so they stay fixed-width (a uvarint would cost
// more).
func EncodeStream(epoch, seq uint64) []byte {
	buf := make([]byte, 0, 17)
	buf = append(buf, KindStream)
	buf = wire.AppendUint64(buf, epoch)
	return wire.AppendUvarint(buf, seq)
}

// DecodeStream parses a record produced by EncodeStream.
func DecodeStream(rec []byte) (epoch, seq uint64, err error) {
	if len(rec) < 1 || rec[0] != KindStream {
		return 0, 0, ErrBadRecord
	}
	d := wire.NewDec(rec[1:])
	epoch = d.Uint64()
	seq = d.Uvarint()
	if d.Expect() != nil {
		return 0, 0, ErrBadRecord
	}
	return epoch, seq, nil
}

// EncodeSite serialises a KindSite record: origin datacenter k and the
// highest origin timestamp durably applied at the local datacenter.
func EncodeSite(k types.DCID, ts hlc.Timestamp) []byte {
	buf := make([]byte, 0, 12)
	buf = append(buf, KindSite)
	buf = wire.AppendUvarint(buf, uint64(k))
	return wire.AppendTimestamp(buf, ts)
}

// DecodeSite parses a record produced by EncodeSite.
func DecodeSite(rec []byte) (types.DCID, hlc.Timestamp, error) {
	if len(rec) < 1 || rec[0] != KindSite {
		return 0, 0, ErrBadRecord
	}
	d := wire.NewDec(rec[1:])
	k := types.DCID(d.Uvarint())
	ts := d.Timestamp()
	if d.Expect() != nil {
		return 0, 0, ErrBadRecord
	}
	return k, ts, nil
}
