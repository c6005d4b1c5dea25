package kvstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"os"
	"path/filepath"
	"sync"

	"eunomia/internal/hlc"
	"eunomia/internal/types"
	"eunomia/internal/wire"
)

// Disk is a log-structured, disk-backed Store: one append-only segment
// file per shard plus an in-memory index mapping each key to its newest
// record. The layout keeps every hot path cheap:
//
//   - Apply/ApplyBatch decide last-writer-wins from the index alone (the
//     index carries each key's timestamp and origin), encode the winning
//     records into a reusable per-shard scratch buffer, and land them
//     with one appending write per involved shard — no read, no seek,
//     and ≤1 allocation per update in steady state, the same contract as
//     Mem.ApplyBatch.
//   - Get preads the record at its indexed offset (os.File.ReadAt; the
//     segment is opened O_APPEND so reads never disturb the write
//     position) and verifies its checksum before decoding.
//   - Compact rewrites a shard's live records into a fresh segment and
//     atomically renames it into place when dead records (overwritten
//     versions) dominate; partitions ride it on the MaybeSnapshot
//     cadence.
//
// Records use the wal framing — uint32 length | uint32 CRC32C(payload) |
// payload — so a torn tail from a crash is detected and truncated on
// open exactly like a wal log. Appends are buffered by the OS page cache
// between Sync calls; a partition makes the segment durable (Sync)
// before it truncates its WAL at a snapshot boundary, so any record the
// cache loses in a crash is still covered by WAL replay.
//
// Unlike Mem's per-process seeded shard hash, Disk's shard placement
// must be stable across restarts (each shard's index is rebuilt from its
// own segment file), so keys are placed by a fixed hash (FNV-1a mixed
// through a splitmix64 finalizer to decorrelate it from the partition
// ring, which is plain FNV-1a).
//
// A segment write failing mid-operation leaves the store unusable —
// Apply has no error return and the in-memory index may already be ahead
// of the file — so write failures panic with the underlying error, the
// same policy partitions apply to WAL append failures.
type Disk struct {
	dir    string
	minGar int64
	shards [numShards]diskShard
}

// DiskOptions tunes a Disk store.
type DiskOptions struct {
	// CompactMinGarbage is the least dead-record bytes a shard must
	// carry before Compact rewrites it (default 1 MiB), so compaction
	// never churns on small shards.
	CompactMinGarbage int64
}

type diskShard struct {
	mu   sync.RWMutex
	f    *os.File
	size int64 // append offset == file size
	live int64 // framed bytes of records the index points at
	dead int64 // framed bytes of overwritten records
	// resident approximates the index's memory: key bytes plus a fixed
	// per-entry overhead for the ref and map cell.
	resident int64
	maxTS    hlc.Timestamp
	index    map[types.Key]diskRef
	scratch  []byte
	dirty    bool
	// corruptDropped counts bytes dropped at open because of mid-file
	// corruption (not a torn tail): valid-looking data followed a record
	// that failed verification.
	corruptDropped int64
}

// diskRef locates a key's newest record and carries the fields the LWW
// decision needs, so the apply path never touches the file.
type diskRef struct {
	off    int64  // payload offset within the segment
	n      uint32 // payload length
	crc    uint32 // CRC32C(payload)
	ts     hlc.Timestamp
	origin types.DCID
}

const (
	diskHeaderSize   = 8 // uint32 length | uint32 CRC32C, as in wal
	diskMaxRecord    = 64 << 20
	diskRefOverhead  = 72 // diskRef + map cell, approximate
	defaultMinGarbge = 1 << 20
)

var diskCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrBadDiskRecord reports a segment record whose checksum or encoding
// is invalid past the torn-tail window.
var ErrBadDiskRecord = errors.New("kvstore: bad disk segment record")

var _ Store = (*Disk)(nil)
var _ Persistent = (*Disk)(nil)

// OpenDisk opens (creating if needed) a disk store under dir, rebuilding
// each shard's index by scanning its segment; a torn tail (crash mid
// write) is truncated like a wal log's.
func OpenDisk(dir string, o DiskOptions) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("kvstore: %w", err)
	}
	if o.CompactMinGarbage <= 0 {
		o.CompactMinGarbage = defaultMinGarbge
	}
	d := &Disk{dir: dir, minGar: o.CompactMinGarbage}
	for i := range d.shards {
		if err := d.shards[i].open(d.segPath(i)); err != nil {
			for j := 0; j < i; j++ {
				d.shards[j].f.Close()
			}
			return nil, err
		}
	}
	return d, nil
}

func (d *Disk) segPath(i int) string {
	return filepath.Join(d.dir, fmt.Sprintf("seg-%02d", i))
}

// diskShardIndex places k on a shard with a fixed, restart-stable hash:
// FNV-1a finalized with splitmix64 mixing so it does not correlate with
// the plain-FNV partition ring (without the mix, a 16-partition ring
// would funnel each partition's whole key range into one shard).
func diskShardIndex(k types.Key) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(k); i++ {
		h ^= uint64(k[i])
		h *= prime64
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h % numShards
}

func (d *Disk) shardFor(k types.Key) *diskShard {
	return &d.shards[diskShardIndex(k)]
}

// appendDiskPayload encodes one (key, version) record payload.
func appendDiskPayload(b []byte, k types.Key, v types.Version) []byte {
	b = wire.AppendString(b, string(k))
	b = wire.AppendUvarint(b, uint64(v.Origin))
	b = wire.AppendTimestamp(b, v.TS)
	b = wire.AppendVClock(b, v.VTS)
	b = wire.AppendBytes(b, v.Value)
	return b
}

// decodeDiskPayload decodes a record payload into fresh storage.
func decodeDiskPayload(p []byte) (types.Key, types.Version, error) {
	dec := wire.NewDec(p)
	k := types.Key(dec.String())
	var v types.Version
	v.Origin = types.DCID(dec.Uvarint())
	v.TS = dec.Timestamp()
	v.VTS = dec.VClock()
	v.Value = dec.Bytes()
	if err := dec.Expect(); err != nil {
		return "", types.Version{}, fmt.Errorf("%w: %v", ErrBadDiskRecord, err)
	}
	return k, v, nil
}

// open scans one shard's segment, rebuilding the index and truncating
// any torn tail. A record that is fully present but fails verification
// with more data behind it is not a torn tail — it is mid-file
// corruption (bit rot under a record that was already synced), and the
// truncation discards every valid record after it. That case cannot be
// repaired here, but it must not pass silently: it is logged loudly and
// counted (CorruptionDropped) so operators can tell segment corruption
// from routine crash recovery.
func (sh *diskShard) open(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("kvstore: %w", err)
	}
	sh.f = f
	sh.index = make(map[types.Key]diskRef)
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("kvstore: %w", err)
	}
	r := bufio.NewReaderSize(io.NewSectionReader(f, 0, st.Size()), 1<<16)
	var (
		off    int64
		header [diskHeaderSize]byte
		buf    []byte
		// badFrameEnd, when >= 0, marks where a fully-present record
		// failed verification and how far its claimed frame reached; any
		// file bytes beyond it are valid-looking data the truncation
		// would silently drop.
		badFrameEnd = int64(-1)
	)
	for {
		if _, err := io.ReadFull(r, header[:]); err != nil {
			break // clean end or torn header: valid prefix ends here
		}
		n := binary.LittleEndian.Uint32(header[0:4])
		crc := binary.LittleEndian.Uint32(header[4:8])
		if n == 0 {
			break // zero-filled tail from a torn page write
		}
		if n > diskMaxRecord {
			// Garbage length. A torn header write leaves nothing after it,
			// so data behind this header means mid-file corruption.
			badFrameEnd = off + diskHeaderSize
			break
		}
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(r, buf); err != nil {
			break // torn payload
		}
		if crc32.Checksum(buf, diskCastagnoli) != crc {
			badFrameEnd = off + diskHeaderSize + int64(n)
			break
		}
		k, v, err := decodeDiskPayload(buf)
		if err != nil {
			badFrameEnd = off + diskHeaderSize + int64(n)
			break
		}
		frame := int64(diskHeaderSize) + int64(n)
		if old, ok := sh.index[k]; ok {
			// Records land in apply order, so later wins; keep the LWW
			// check anyway in case a compaction interleaved orders.
			if !v.Newer(types.Version{TS: old.ts, Origin: old.origin}) {
				sh.dead += frame
				off += frame
				continue
			}
			sh.dead += int64(diskHeaderSize) + int64(old.n)
			sh.live -= int64(diskHeaderSize) + int64(old.n)
		} else {
			sh.resident += int64(len(k)) + diskRefOverhead
		}
		sh.index[k] = diskRef{off: off + diskHeaderSize, n: n, crc: crc, ts: v.TS, origin: v.Origin}
		sh.live += frame
		if v.TS > sh.maxTS {
			sh.maxTS = v.TS
		}
		off += frame
	}
	if off < st.Size() {
		if badFrameEnd >= 0 && badFrameEnd < st.Size() {
			// Data follows the corrupt record, so this is not a crash's
			// torn tail: records past the corruption are being discarded.
			sh.corruptDropped = st.Size() - off
			log.Printf("kvstore: CORRUPT segment %s: record at offset %d fails verification with %d bytes of data behind it; dropping %d bytes (all records past the corruption) — this is data loss, not crash recovery",
				path, off, st.Size()-badFrameEnd, sh.corruptDropped)
		}
		// Drop the invalid suffix, exactly like wal's open-time truncation.
		if err := f.Truncate(off); err != nil {
			f.Close()
			return fmt.Errorf("kvstore: truncating torn segment tail: %w", err)
		}
	}
	sh.size = off
	return nil
}

// appendLocked frames v into the shard's scratch buffer and installs its
// index entry at the offset it will land at once the scratch is written.
// Caller holds sh.mu and must flush the scratch with writeScratchLocked
// before releasing it.
func (sh *diskShard) appendLocked(k types.Key, v types.Version) {
	start := len(sh.scratch)
	// Reserve the header, encode the payload behind it, then back-fill.
	sh.scratch = append(sh.scratch, 0, 0, 0, 0, 0, 0, 0, 0)
	sh.scratch = appendDiskPayload(sh.scratch, k, v)
	payload := sh.scratch[start+diskHeaderSize:]
	crc := crc32.Checksum(payload, diskCastagnoli)
	binary.LittleEndian.PutUint32(sh.scratch[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(sh.scratch[start+4:], crc)

	frame := int64(diskHeaderSize) + int64(len(payload))
	if old, ok := sh.index[k]; ok {
		oldFrame := int64(diskHeaderSize) + int64(old.n)
		sh.live -= oldFrame
		sh.dead += oldFrame
	} else {
		sh.resident += int64(len(k)) + diskRefOverhead
	}
	sh.index[k] = diskRef{
		off:    sh.size + int64(start) + diskHeaderSize,
		n:      uint32(len(payload)),
		crc:    crc,
		ts:     v.TS,
		origin: v.Origin,
	}
	sh.live += frame
	if v.TS > sh.maxTS {
		sh.maxTS = v.TS
	}
}

// writeScratchLocked lands the scratch buffer with one appending write
// and resets it (capacity retained). Caller holds sh.mu.
func (sh *diskShard) writeScratchLocked() {
	if len(sh.scratch) == 0 {
		return
	}
	if _, err := sh.f.Write(sh.scratch); err != nil {
		panic("kvstore: disk segment write failed: " + err.Error())
	}
	sh.size += int64(len(sh.scratch))
	sh.scratch = sh.scratch[:0]
	sh.dirty = true
}

// Get returns the stored version of k, if any, reading its record back
// with one pread and verifying the checksum.
func (d *Disk) Get(k types.Key) (types.Version, bool) {
	sh := d.shardFor(k)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	ref, ok := sh.index[k]
	if !ok {
		return types.Version{}, false
	}
	return sh.readLocked(k, ref), true
}

// readLocked preads and decodes the record at ref; caller holds sh.mu
// (read or write). An unreadable indexed record is store corruption
// beneath a running process and panics, mirroring the write policy.
func (sh *diskShard) readLocked(k types.Key, ref diskRef) types.Version {
	buf := make([]byte, ref.n)
	if _, err := sh.f.ReadAt(buf, ref.off); err != nil {
		panic("kvstore: disk segment pread failed: " + err.Error())
	}
	if crc32.Checksum(buf, diskCastagnoli) != ref.crc {
		panic(fmt.Sprintf("kvstore: disk segment checksum mismatch for key %q", k))
	}
	_, v, err := decodeDiskPayload(buf)
	if err != nil {
		panic("kvstore: " + err.Error())
	}
	return v
}

// Put stores v under k unconditionally (the partition's local update
// path has already serialized writes to the key).
func (d *Disk) Put(k types.Key, v types.Version) {
	sh := d.shardFor(k)
	sh.mu.Lock()
	sh.appendLocked(k, v)
	sh.writeScratchLocked()
	sh.mu.Unlock()
}

// Apply merges v into k under last-writer-wins, deciding from the index
// alone and appending the record only when v wins.
func (d *Disk) Apply(k types.Key, v types.Version) bool {
	sh := d.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if old, ok := sh.index[k]; ok && !v.Newer(types.Version{TS: old.ts, Origin: old.origin}) {
		return false
	}
	sh.appendLocked(k, v)
	sh.writeScratchLocked()
	return true
}

// ApplyBatch merges a batch under LWW with the same locking discipline
// and batch-atomic visibility as Mem.ApplyBatch: every involved shard is
// locked before the first write and released after the last. Winning
// records are encoded into each shard's scratch buffer and landed with
// one appending write per involved shard, keeping the path at ≤1
// allocation per update in steady state. Entry Value/VTS memory is
// copied into the encoding, so unlike Mem no caller memory is retained.
func (d *Disk) ApplyBatch(entries []BatchEntry) int {
	if len(entries) == 0 {
		return 0
	}
	var mask uint32
	for i := range entries {
		mask |= 1 << diskShardIndex(entries[i].Key)
	}
	for i := 0; i < numShards; i++ {
		if mask&(1<<i) != 0 {
			d.shards[i].mu.Lock()
		}
	}
	applied := 0
	for i := range entries {
		e := &entries[i]
		sh := &d.shards[diskShardIndex(e.Key)]
		if old, ok := sh.index[e.Key]; ok && !e.Ver.Newer(types.Version{TS: old.ts, Origin: old.origin}) {
			continue
		}
		sh.appendLocked(e.Key, e.Ver)
		applied++
	}
	for i := numShards - 1; i >= 0; i-- {
		if mask&(1<<i) != 0 {
			d.shards[i].writeScratchLocked()
			d.shards[i].mu.Unlock()
		}
	}
	return applied
}

// Len returns the number of stored keys.
func (d *Disk) Len() int {
	n := 0
	for i := range d.shards {
		d.shards[i].mu.RLock()
		n += len(d.shards[i].index)
		d.shards[i].mu.RUnlock()
	}
	return n
}

// Bytes reports the framed bytes of live records — the data a snapshot
// ship or compaction rewrite would carry.
func (d *Disk) Bytes() int64 {
	var n int64
	for i := range d.shards {
		d.shards[i].mu.RLock()
		n += d.shards[i].live
		d.shards[i].mu.RUnlock()
	}
	return n
}

// DiskSize reports the total segment bytes on disk, dead records
// included — what compaction can reclaim down from.
func (d *Disk) DiskSize() int64 {
	var n int64
	for i := range d.shards {
		d.shards[i].mu.RLock()
		n += d.shards[i].size
		d.shards[i].mu.RUnlock()
	}
	return n
}

// ResidentBytes approximates the store's resident memory: the index is
// the only per-key state held in RAM.
func (d *Disk) ResidentBytes() int64 {
	var n int64
	for i := range d.shards {
		d.shards[i].mu.RLock()
		n += d.shards[i].resident
		d.shards[i].mu.RUnlock()
	}
	return n
}

// CorruptionDropped reports bytes discarded at open because of mid-file
// segment corruption — a record failing verification with valid-looking
// data behind it, as opposed to a crash's torn tail (which is routine
// and not counted). Non-zero means keys were lost to bit rot.
func (d *Disk) CorruptionDropped() int64 {
	var n int64
	for i := range d.shards {
		n += d.shards[i].corruptDropped
	}
	return n
}

// MaxTS returns the highest timestamp of any live version.
func (d *Disk) MaxTS() hlc.Timestamp {
	var ts hlc.Timestamp
	for i := range d.shards {
		d.shards[i].mu.RLock()
		if d.shards[i].maxTS > ts {
			ts = d.shards[i].maxTS
		}
		d.shards[i].mu.RUnlock()
	}
	return ts
}

// ForEach visits every (key, version) pair, preading each record; the
// snapshot is per-shard consistent. Convergence checks and snapshot
// capture use it — it is a full-store scan, not a hot path.
func (d *Disk) ForEach(fn func(types.Key, types.Version)) {
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.RLock()
		for k, ref := range sh.index {
			fn(k, sh.readLocked(k, ref))
		}
		sh.mu.RUnlock()
	}
}

// Sync forces every appended record to stable storage; shards untouched
// since their last sync are skipped.
func (d *Disk) Sync() error {
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.Lock()
		if sh.dirty {
			if err := sh.f.Sync(); err != nil {
				sh.mu.Unlock()
				return fmt.Errorf("kvstore: segment sync: %w", err)
			}
			sh.dirty = false
		}
		sh.mu.Unlock()
	}
	return nil
}

// Compact rewrites shards whose dead-record bytes exceed both the
// configured floor and their live bytes: live records are copied into a
// fresh segment, which atomically replaces the old one (tmp + fsync +
// rename), and the index is repointed. Shards below the threshold are
// untouched, so riding Compact on the snapshot cadence is cheap.
func (d *Disk) Compact() error {
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.Lock()
		if sh.dead < d.minGar || sh.dead < sh.live {
			sh.mu.Unlock()
			continue
		}
		if err := sh.compactLocked(d.segPath(i)); err != nil {
			sh.mu.Unlock()
			return err
		}
		sh.mu.Unlock()
	}
	return nil
}

// compactLocked rewrites one shard; caller holds sh.mu exclusively.
func (sh *diskShard) compactLocked(path string) error {
	tmp := path + ".tmp"
	nf, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("kvstore: %w", err)
	}
	w := bufio.NewWriterSize(nf, 1<<16)
	var (
		off      int64
		newIndex = make(map[types.Key]diskRef, len(sh.index))
		header   [diskHeaderSize]byte
		buf      []byte
	)
	fail := func(err error) error {
		nf.Close()
		os.Remove(tmp)
		return fmt.Errorf("kvstore: compacting segment: %w", err)
	}
	for k, ref := range sh.index {
		if cap(buf) < int(ref.n) {
			buf = make([]byte, ref.n)
		}
		buf = buf[:ref.n]
		if _, err := sh.f.ReadAt(buf, ref.off); err != nil {
			return fail(err)
		}
		binary.LittleEndian.PutUint32(header[0:4], ref.n)
		binary.LittleEndian.PutUint32(header[4:8], ref.crc)
		if _, err := w.Write(header[:]); err != nil {
			return fail(err)
		}
		if _, err := w.Write(buf); err != nil {
			return fail(err)
		}
		ref.off = off + diskHeaderSize
		newIndex[k] = ref
		off += diskHeaderSize + int64(ref.n)
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	if err := nf.Sync(); err != nil {
		return fail(err)
	}
	if err := nf.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("kvstore: compacting segment: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("kvstore: installing compacted segment: %w", err)
	}
	// Reopen through the renamed path so the handle tracks the new
	// inode; the old handle (old inode) is released.
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("kvstore: reopening compacted segment: %w", err)
	}
	sh.f.Close()
	sh.f = f
	sh.index = newIndex
	sh.size = off
	sh.live = off
	sh.dead = 0
	sh.dirty = true
	return nil
}

// Close syncs and closes every segment. The store must not be used
// after.
func (d *Disk) Close() error {
	var first error
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.Lock()
		if sh.dirty {
			if err := sh.f.Sync(); err != nil && first == nil {
				first = err
			}
		}
		if err := sh.f.Close(); err != nil && first == nil {
			first = err
		}
		sh.mu.Unlock()
	}
	return first
}
