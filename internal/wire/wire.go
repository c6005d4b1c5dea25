// Package wire is the hand-rolled, zero-reflection binary codec every
// networked hot path of the repository runs on: the TCP fabric's frames
// (internal/transport), every registered protocol payload (metadata
// batches, ack watermarks, shipping, release streams, sequencer round
// trips), and the write-ahead log's records (internal/wal).
//
// It replaced the standard library's gob encoding on those paths
// (DESIGN.md "Retired ablations"). Gob pays reflection, per-stream type
// descriptors, and fresh allocations for every message; wire encodes with
// append-only writes into caller-supplied (usually pooled) buffers and
// decodes with a cursor over the received frame, so a steady-state encode
// performs zero heap allocations and a decode allocates only the payload
// values themselves.
//
// Encoding conventions, shared by every codec in this package and
// documented in DESIGN.md ("The wire format"):
//
//   - unsigned integers (sequence numbers, identifiers, lengths) are
//     uvarints; known-64-bit wall-clock instants (UnixNano) are fixed
//     8-byte little-endian;
//   - hlc timestamps use a compact split encoding: the 48-bit physical
//     part rides one uvarint whose low bit flags a non-zero logical
//     counter, which follows as its own uvarint only when present — a
//     typical timestamp costs 7 bytes instead of 10 (uvarint) or 8
//     (fixed) and a zero timestamp costs 1;
//   - vector clocks are a uvarint length followed by that many compact
//     timestamps;
//   - strings and byte slices are length-prefixed (uvarint); a zero
//     length decodes as nil for byte slices.
//
// Decoding is strict and total: every decoder consumes from a bounds-
// checked cursor (Dec), truncated or corrupt input yields ErrCorrupt —
// never a panic or an over-read — and top-level decoders require the
// input to be fully consumed.
package wire

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"sync"

	"eunomia/internal/hlc"
	"eunomia/internal/vclock"
)

// ErrCorrupt reports a truncated or structurally invalid encoding.
var ErrCorrupt = errors.New("wire: corrupt or truncated encoding")

// AppendUvarint appends v as a uvarint.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendUint64 appends v as fixed 8-byte little-endian — the right choice
// for full-range values like UnixNano instants, where a uvarint would
// cost 9-10 bytes.
func AppendUint64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendBool appends a single 0/1 byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendString appends a uvarint length prefix and the string bytes.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends a uvarint length prefix and the slice bytes. nil
// and empty encode identically (length 0) and decode as nil.
func AppendBytes(b, v []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

// AppendTimestamp appends a compact hlc timestamp: uvarint(phys<<1|flag),
// then uvarint(logical) only when flag says the logical counter is
// non-zero. See the package comment for the rationale.
func AppendTimestamp(b []byte, ts hlc.Timestamp) []byte {
	v := uint64(ts)
	logical := v & (1<<hlc.LogicalBits - 1)
	phys := v >> hlc.LogicalBits
	if logical == 0 {
		return binary.AppendUvarint(b, phys<<1)
	}
	b = binary.AppendUvarint(b, phys<<1|1)
	return binary.AppendUvarint(b, logical)
}

// AppendVClock appends a uvarint length and each entry as a compact
// timestamp.
func AppendVClock(b []byte, v vclock.V) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	for _, ts := range v {
		b = AppendTimestamp(b, ts)
	}
	return b
}

// Dec is a bounds-checked decode cursor with a sticky error: after the
// first failure every accessor returns zero values and Err reports
// ErrCorrupt, so decoders read field-by-field without per-field error
// plumbing and finish with a single check.
type Dec struct {
	b   []byte
	bad bool
	// arena, when armed by a batch decoder, is the single backing
	// allocation every subsequent Bytes() read carves its copy out of —
	// one allocation for all the values of a decoded batch instead of
	// one per value. Allocation is deferred until the first value is
	// carved (arenaPending holds the armed size), so metadata-only
	// batches — nil values, the hottest fabric frames — pay nothing.
	// Consumed from the front; reads that outgrow the remainder fall
	// back to a fresh allocation.
	arena        []byte
	arenaPending int
}

// NewDec returns a cursor over b.
func NewDec(b []byte) Dec { return Dec{b: b} }

// Err returns ErrCorrupt if any read failed (or Expect found leftovers),
// nil otherwise.
func (d *Dec) Err() error {
	if d.bad {
		return ErrCorrupt
	}
	return nil
}

// Remaining reports how many bytes are left unread.
func (d *Dec) Remaining() int { return len(d.b) }

// Expect fails the cursor unless exactly the whole input was consumed;
// it returns the final Err. Every top-level decoder ends with it so
// trailing garbage is corruption, not silence.
func (d *Dec) Expect() error {
	if len(d.b) != 0 {
		d.bad = true
	}
	return d.Err()
}

func (d *Dec) fail() {
	d.bad = true
	d.b = nil
}

// Uvarint reads one uvarint.
func (d *Dec) Uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Uint64 reads a fixed 8-byte little-endian value.
func (d *Dec) Uint64() uint64 {
	if len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

// Byte reads one byte.
func (d *Dec) Byte() byte {
	if len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// Bool reads one 0/1 byte; any other value is corruption.
func (d *Dec) Bool() bool {
	switch d.Byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail()
		return false
	}
}

// take reads a length-prefixed span, guarding the prefix against the
// remaining input so a hostile length cannot drive an over-read or a
// huge allocation.
func (d *Dec) take() []byte {
	n := d.Uvarint()
	if n > uint64(len(d.b)) {
		d.fail()
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

// String reads a length-prefixed string.
func (d *Dec) String() string { return string(d.take()) }

// valueArena arms the cursor with one backing allocation of n bytes for
// subsequent Bytes() reads. Batch decoders size it by the remaining input
// — every value a batch can carry fits in the bytes that encode it — so a
// whole batch's values cost one allocation, and the slight over-allocation
// is bounded by the non-value bytes of the frame. Nothing is allocated
// until the first value is actually carved.
func (d *Dec) valueArena(n int) {
	d.arena = nil
	d.arenaPending = n
}

// Bytes reads a length-prefixed byte slice into fresh storage (the
// cursor's backing buffer is pooled and reused; decoded values must not
// alias it). A zero length decodes as nil. When a batch decoder has armed
// the value arena, the copy is carved out of it instead of individually
// allocated.
func (d *Dec) Bytes() []byte {
	v := d.take()
	if len(v) == 0 {
		return nil
	}
	if d.arena == nil && d.arenaPending >= len(v) {
		d.arena = make([]byte, d.arenaPending)
		d.arenaPending = 0
	}
	if len(v) <= len(d.arena) {
		dst := d.arena[:len(v):len(v)]
		d.arena = d.arena[len(v):]
		copy(dst, v)
		return dst
	}
	return append([]byte(nil), v...)
}

// Timestamp reads a compact hlc timestamp.
func (d *Dec) Timestamp() hlc.Timestamp {
	u := d.Uvarint()
	phys := u >> 1
	if bits.Len64(phys) > 64-hlc.LogicalBits {
		d.fail()
		return 0
	}
	ts := phys << hlc.LogicalBits
	if u&1 != 0 {
		logical := d.Uvarint()
		if logical == 0 || logical >= 1<<hlc.LogicalBits {
			// A zero logical rides the flagless form; anything wider than
			// the counter is corruption.
			d.fail()
			return 0
		}
		ts |= logical
	}
	return hlc.Timestamp(ts)
}

// VClock reads a vector clock. The length is sanity-bounded: deployments
// have one entry per datacenter, so anything above 64k is corruption,
// not a cluster.
func (d *Dec) VClock() vclock.V {
	n := d.Uvarint()
	if n == 0 {
		return nil
	}
	if n > 1<<16 || n > uint64(d.Remaining()) {
		// Each entry costs at least one byte; a length beyond the input
		// cannot be honest, and failing before the make bounds the
		// allocation a corrupt frame can force.
		d.fail()
		return nil
	}
	v := make(vclock.V, n)
	for i := range v {
		v[i] = d.Timestamp()
	}
	if d.bad {
		return nil
	}
	return v
}

// bufPool recycles encode buffers: frame writers take one per flush
// batch, the WAL takes one per record append. Buffers that grew beyond
// keepBuf are dropped rather than pooled so one giant frame does not pin
// its worst-case footprint forever.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

const keepBuf = 1 << 20

// GetBuf returns an empty pooled buffer with some capacity.
func GetBuf() []byte { return (*(bufPool.Get().(*[]byte)))[:0] }

// PutBuf returns a buffer to the pool. Nil and oversized buffers are
// dropped: pooling a zero-capacity buffer would hand a later GetBuf
// caller a useless allocation, and one giant frame must not pin its
// worst-case footprint forever.
func PutBuf(b []byte) {
	if b == nil || cap(b) > keepBuf {
		return
	}
	b = b[:0]
	bufPool.Put(&b)
}
