// Package wal is a write-ahead log giving partitions crash durability —
// the piece a production deployment of the paper's design needs beneath
// the in-memory version store (Riak persists through bitcask/leveldb; this
// is the equivalent for our kvstore substrate).
//
// Format: length-prefixed records, each framed as
//
//	uint32 length | uint32 CRC32C(payload) | payload
//
// Appends are buffered and fsynced according to SyncPolicy. Replay
// tolerates a torn tail (a crash mid-append): the first corrupt or
// truncated record ends recovery, and the file is truncated back to the
// last durable boundary on open, which makes recovery idempotent.
//
// Every record carries a log sequence number (LSN): a per-Log counter that
// increments on append and never rewinds (snapshot truncation resets the
// file, not the counter). AppendedLSN/DurableLSN expose the two watermarks,
// and OnCommit observes durability advances — the hooks the group-commit
// policy (see groupcommit.go) and the release path's async durability acks
// are built on.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// SyncPolicy controls when appends reach stable storage.
type SyncPolicy int

const (
	// SyncGroupCommit, the zero value, makes Append return only after
	// the record is on disk, at a fraction of the fsync cost of syncing
	// each append: a committer goroutine coalesces every record that
	// arrived while the previous fsync was in flight into one sync and
	// then completes all of their waits at once. Throughput scales with
	// appender concurrency instead of being serialized behind one fsync
	// per record; see Options for the accumulation knobs.
	SyncGroupCommit SyncPolicy = iota
	// SyncOnFlush fsyncs only on explicit Flush/Close: the batching
	// analogue — a partition flushing its Eunomia batch every 1ms
	// flushes its log on the same cadence, bounding loss to one batch.
	SyncOnFlush
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: closed")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Log is an append-only record log. Safe for concurrent use.
type Log struct {
	mu     sync.Mutex
	f      *os.File
	w      *bufio.Writer
	policy SyncPolicy
	size   int64

	// shutdown rejects new operations the moment Close (or a test crash)
	// begins; closed marks the file handle gone and releases waiters.
	shutdown bool
	closed   bool

	// appended is the LSN of the newest record written into the buffer;
	// durable is the LSN of the newest record known to be on disk. Both
	// are monotone for the life of the Log — snapshot truncation marks
	// everything durable (the snapshot holds it) rather than rewinding.
	appended uint64
	durable  uint64
	// syncErr is the sticky first sync failure; once set, every durability
	// wait returns it (acknowledging past a failed fsync would be a lie).
	syncErr error

	// commit is broadcast whenever durable advances, syncErr is set, or
	// the log closes; Append/WaitDurable waiters park on it.
	commit *sync.Cond
	// onCommit callbacks run with mu held whenever durable advances; they
	// must be non-blocking and must not re-enter the Log or its Store.
	onCommit []func(durable uint64)

	// Group-commit machinery (nil/zero unless policy is SyncGroupCommit).
	groupDelay time.Duration
	groupMax   int
	wake       chan struct{}
	stop       chan struct{}
	stopped    chan struct{}
	metrics    *SyncMetrics

	// inject is the Options.InjectSync fault seam, consulted before
	// every fsync; nil outside fault-injection runs.
	inject func() error
}

const headerSize = 8

// maxRecord guards against corrupt length prefixes during replay.
const maxRecord = 64 << 20

// Open opens (creating if needed) the log at path, truncates any torn
// tail, and positions for appending.
func Open(path string, policy SyncPolicy) (*Log, error) {
	return OpenOptions(path, Options{Policy: policy})
}

// OpenOptions is Open with the full option set (group-commit knobs, sync
// metrics); see Options.
func OpenOptions(path string, o Options) (*Log, error) {
	o = o.withDefaults()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	valid, err := scanValidPrefix(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{
		f: f, w: bufio.NewWriter(f), policy: o.Policy, size: valid,
		groupDelay: o.GroupDelay, groupMax: o.GroupMaxBatch, metrics: o.Metrics,
		inject: o.InjectSync,
	}
	l.commit = sync.NewCond(&l.mu)
	if o.Policy == SyncGroupCommit {
		l.wake = make(chan struct{}, 1)
		l.stop = make(chan struct{})
		l.stopped = make(chan struct{})
		go l.committer()
	}
	return l, nil
}

// scanValidPrefix returns the byte offset of the last whole, checksummed
// record.
func scanValidPrefix(f *os.File) (int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	r := bufio.NewReader(f)
	var offset int64
	var header [headerSize]byte
	buf := make([]byte, 4096)
	for {
		if _, err := io.ReadFull(r, header[:]); err != nil {
			return offset, nil // clean EOF or torn header
		}
		length := binary.LittleEndian.Uint32(header[0:4])
		sum := binary.LittleEndian.Uint32(header[4:8])
		if length > maxRecord {
			return offset, nil // corrupt length: stop here
		}
		if int(length) > len(buf) {
			buf = make([]byte, length)
		}
		if _, err := io.ReadFull(r, buf[:length]); err != nil {
			return offset, nil // torn payload
		}
		if crc32.Checksum(buf[:length], castagnoli) != sum {
			return offset, nil // corrupt payload
		}
		offset += headerSize + int64(length)
	}
}

// appendLocked frames payload into the write buffer and assigns its LSN.
func (l *Log) appendLocked(payload []byte) (uint64, error) {
	if l.shutdown || l.closed {
		return 0, ErrClosed
	}
	var header [headerSize]byte
	binary.LittleEndian.PutUint32(header[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(header[4:8], crc32.Checksum(payload, castagnoli))
	if _, err := l.w.Write(header[:]); err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	if _, err := l.w.Write(payload); err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	l.size += headerSize + int64(len(payload))
	l.appended++
	return l.appended, nil
}

// Append writes one record and applies the policy's durability guarantee:
// SyncGroupCommit blocks until a group commit covers the record
// (concurrent callers share one fsync), and SyncOnFlush returns
// immediately (durability rides the next Flush).
func (l *Log) Append(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	lsn, err := l.appendLocked(payload)
	if err != nil {
		return err
	}
	if l.policy != SyncGroupCommit {
		return nil
	}
	l.pokeCommitter()
	return l.waitDurableLocked(lsn)
}

// Flush forces buffered records to stable storage.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.shutdown || l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

// sync runs one fsync through the fault-injection seam: an armed
// InjectSync error stands in for the fsync failing without touching the
// file.
func (l *Log) sync() error {
	if l.inject != nil {
		if err := l.inject(); err != nil {
			return err
		}
	}
	return l.f.Sync()
}

// syncLocked flushes the buffer, fsyncs, and advances the durable
// watermark to everything appended so far. Failures are sticky: once a
// sync fails the log's durability promise is void, every later sync
// attempt returns the same error (no silent retry can un-lose records
// the buffer already dropped), and the SyncErrors counter has advanced.
// A log with nothing appended since its last sync returns without an
// fsync.
func (l *Log) syncLocked() error {
	if l.syncErr != nil {
		return l.syncErr
	}
	if l.durable == l.appended && l.w.Buffered() == 0 {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		return l.failCommitLocked(err)
	}
	target := l.appended
	start := time.Now()
	err := l.sync()
	if l.metrics != nil && l.metrics.Fsync != nil {
		l.metrics.Fsync.RecordDuration(time.Since(start))
	}
	if err != nil {
		return l.failCommitLocked(err)
	}
	l.advanceDurableLocked(target)
	return nil
}

// advanceDurableLocked moves the durable watermark to target, feeds the
// batch-size metrics, fires commit callbacks, and wakes waiters.
func (l *Log) advanceDurableLocked(target uint64) {
	if target <= l.durable {
		return
	}
	if l.metrics != nil {
		l.metrics.Commits.Inc()
		l.metrics.Records.Add(int64(target - l.durable))
	}
	l.durable = target
	for _, fn := range l.onCommit {
		fn(target)
	}
	l.commit.Broadcast()
}

// waitDurableLocked parks until the durable watermark covers lsn. A log
// closed mid-wait reports ErrClosed unless the closing sync already made
// the record durable; a failed group commit reports the sticky sync error.
func (l *Log) waitDurableLocked(lsn uint64) error {
	for l.durable < lsn && l.syncErr == nil && !l.closed {
		l.commit.Wait()
	}
	if l.durable >= lsn {
		return nil
	}
	if l.syncErr != nil {
		return l.syncErr
	}
	return ErrClosed
}

// Size returns the current log size in bytes (including buffered appends).
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Close stops the committer (if any), flushes, fsyncs, and closes the log.
// Durability waiters parked at Close time are completed by the final sync
// rather than failed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.shutdown {
		l.mu.Unlock()
		return nil
	}
	l.shutdown = true
	l.mu.Unlock()
	if l.stop != nil {
		close(l.stop)
		<-l.stopped
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var err error
	if l.syncErr != nil {
		err = l.syncErr // durability already void: don't pretend the final sync saves it
	} else {
		err = l.w.Flush()
		if err == nil {
			start := time.Now()
			err = l.sync()
			if l.metrics != nil && l.metrics.Fsync != nil {
				l.metrics.Fsync.RecordDuration(time.Since(start))
			}
		}
		if err == nil {
			l.advanceDurableLocked(l.appended)
		} else {
			err = l.failCommitLocked(err)
		}
	}
	l.closed = true
	l.commit.Broadcast()
	cerr := l.f.Close()
	if err != nil {
		l.f.Close()
		return err
	}
	if cerr != nil {
		return fmt.Errorf("wal: %w", cerr)
	}
	return nil
}

// Replay invokes fn for every durable record in append order. It opens the
// file read-only; replaying while another Log has the file open for append
// is safe in the torn-tail sense (the scan stops at the first record whose
// bytes have not fully reached the file), which is exactly what the
// durability tests rely on to ask "what would a crash right now recover?".
func Replay(path string, fn func(payload []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil // nothing to recover
		}
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var header [headerSize]byte
	buf := make([]byte, 4096)
	for {
		if _, err := io.ReadFull(r, header[:]); err != nil {
			return nil
		}
		length := binary.LittleEndian.Uint32(header[0:4])
		sum := binary.LittleEndian.Uint32(header[4:8])
		if length > maxRecord {
			return nil
		}
		if int(length) > len(buf) {
			buf = make([]byte, length)
		}
		if _, err := io.ReadFull(r, buf[:length]); err != nil {
			return nil
		}
		if crc32.Checksum(buf[:length], castagnoli) != sum {
			return nil
		}
		if err := fn(buf[:length]); err != nil {
			return err
		}
	}
}
