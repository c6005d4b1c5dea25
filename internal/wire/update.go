package wire

import (
	"eunomia/internal/types"
)

// maxUpdates bounds a decoded batch: each update costs at least
// updateMinBytes on the wire, so the guard in DecodeUpdates is the real
// bound; this is a belt against pathological counts.
const maxUpdates = 1 << 24

// updateMinBytes is the smallest possible encoded update (every field
// zero/empty), used to reject dishonest batch counts before allocating.
const updateMinBytes = 14

// AppendUpdate appends one update record. The layout is the package's
// standard field order; internal/wal prefixes it with a record-kind byte
// and the fabric payload codecs embed it in their messages.
func AppendUpdate(b []byte, u *types.Update) []byte {
	b = AppendString(b, string(u.Key))
	b = AppendBytes(b, u.Value)
	b = AppendUvarint(b, uint64(u.Origin))
	b = AppendUvarint(b, uint64(u.Partition))
	b = AppendUvarint(b, u.Seq)
	b = AppendTimestamp(b, u.TS)
	b = AppendTimestamp(b, u.HTS)
	b = AppendVClock(b, u.VTS)
	b = AppendUint64(b, uint64(u.CreatedAt))
	return b
}

// ReadUpdate decodes one update at the cursor into fresh storage.
func ReadUpdate(d *Dec) *types.Update {
	u := &types.Update{}
	if !readUpdateInto(d, u) {
		return nil
	}
	return u
}

func readUpdateInto(d *Dec, u *types.Update) bool {
	u.Key = types.Key(d.String())
	u.Value = types.Value(d.Bytes())
	u.Origin = types.DCID(d.Uvarint())
	u.Partition = types.PartitionID(d.Uvarint())
	u.Seq = d.Uvarint()
	u.TS = d.Timestamp()
	u.HTS = d.Timestamp()
	u.VTS = d.VClock()
	u.CreatedAt = int64(d.Uint64())
	return d.Err() == nil
}

// AppendUpdates appends a batch: uvarint count, then each update.
func AppendUpdates(b []byte, ops []*types.Update) []byte {
	b = AppendUvarint(b, uint64(len(ops)))
	for _, u := range ops {
		b = AppendUpdate(b, u)
	}
	return b
}

// ReadUpdates decodes a batch at the cursor.
func ReadUpdates(d *Dec) []*types.Update {
	n := d.Uvarint()
	if n == 0 {
		return nil
	}
	if n > maxUpdates || n > uint64(d.Remaining()/updateMinBytes)+1 {
		d.fail()
		return nil
	}
	// One block allocation for the whole batch: consumers keep whole
	// batches (receiver queues, pending sets) far more often than single
	// strays, so coupling the records' lifetimes costs little and saves
	// n-1 allocations per decode. The value arena does the same for the
	// payload bytes: one backing allocation for every value in the batch.
	d.valueArena(d.Remaining())
	block := make([]types.Update, n)
	ops := make([]*types.Update, n)
	for i := range block {
		if !readUpdateInto(d, &block[i]) {
			return nil
		}
		ops[i] = &block[i]
	}
	return ops
}

// AppendPartitionBatches appends a multi-stream batch — the body of a
// stream frame (fabric.MultiBatchMsg): a uvarint total operation count (so
// the decoder can block-allocate before parsing), a uvarint stream count,
// then per stream a uvarint partition id, the compact Base and Mark
// timestamps, a uvarint operation count, and the operations.
func AppendPartitionBatches(b []byte, batches []types.PartitionBatch) []byte {
	total := 0
	for _, sb := range batches {
		total += len(sb.Ops)
	}
	b = AppendUvarint(b, uint64(total))
	b = AppendUvarint(b, uint64(len(batches)))
	for _, sb := range batches {
		b = AppendUvarint(b, uint64(sb.Partition))
		b = AppendTimestamp(b, sb.Base)
		b = AppendTimestamp(b, sb.Mark)
		b = AppendUvarint(b, uint64(len(sb.Ops)))
		for _, u := range sb.Ops {
			b = AppendUpdate(b, u)
		}
	}
	return b
}

// ReadPartitionBatches decodes a multi-stream batch with a fixed number of
// allocations regardless of stream or operation count: one update block
// and one pointer slab shared by every stream, one stream slice, and one
// value arena for all the payload bytes. A declared total that disagrees
// with the per-stream counts is corruption.
func ReadPartitionBatches(d *Dec) []types.PartitionBatch {
	total := d.Uvarint()
	ns := d.Uvarint()
	if d.Err() != nil {
		return nil
	}
	if total > maxUpdates || total > uint64(d.Remaining()/updateMinBytes)+1 {
		d.fail()
		return nil
	}
	// Each stream costs at least four bytes (partition id, base, mark,
	// count).
	if ns > uint64(d.Remaining()/4)+1 {
		d.fail()
		return nil
	}
	if ns == 0 {
		if total != 0 {
			d.fail()
		}
		return nil
	}
	d.valueArena(d.Remaining())
	block := make([]types.Update, total)
	ptrs := make([]*types.Update, total)
	out := make([]types.PartitionBatch, ns)
	k := uint64(0)
	for i := range out {
		out[i].Partition = types.PartitionID(d.Uvarint())
		out[i].Base = d.Timestamp()
		out[i].Mark = d.Timestamp()
		n := d.Uvarint()
		if d.Err() != nil || k+n > total || k+n < k {
			d.fail()
			return nil
		}
		if n == 0 {
			continue // a mark-only entry: Ops stays nil, as encoded
		}
		ops := ptrs[k : k+n : k+n]
		for j := range ops {
			if !readUpdateInto(d, &block[k]) {
				return nil
			}
			ops[j] = &block[k]
			k++
		}
		out[i].Ops = ops
	}
	if k != total {
		d.fail()
		return nil
	}
	return out
}

// AppendPartitionMarks appends a watermark list: a uvarint
// count, then per mark a uvarint partition id and a compact timestamp.
func AppendPartitionMarks(b []byte, marks []types.PartitionMark) []byte {
	b = AppendUvarint(b, uint64(len(marks)))
	for _, mk := range marks {
		b = AppendUvarint(b, uint64(mk.Partition))
		b = AppendTimestamp(b, mk.TS)
	}
	return b
}

// ReadPartitionMarks decodes a watermark list.
func ReadPartitionMarks(d *Dec) []types.PartitionMark {
	n := d.Uvarint()
	if n == 0 {
		return nil
	}
	// Each mark costs at least two bytes (partition id + timestamp).
	if n > uint64(d.Remaining()/2)+1 {
		d.fail()
		return nil
	}
	marks := make([]types.PartitionMark, n)
	for i := range marks {
		marks[i].Partition = types.PartitionID(d.Uvarint())
		marks[i].TS = d.Timestamp()
	}
	if d.bad {
		return nil
	}
	return marks
}
