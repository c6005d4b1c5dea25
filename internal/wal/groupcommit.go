package wal

// Group commit: the SyncGroupCommit policy's committer goroutine and the
// async append/wait API the release path's durability-gated acking rides
// on.
//
// The classic idea (System R's group commit, every modern database's WAL):
// an fsync costs the same whether it covers one record or a hundred, so
// while one fsync is in flight, let every new append accumulate in the
// write buffer; when the sync returns, issue one more covering all of
// them and complete all of their durability waits at once. Blocking
// Append returns only once the caller's record is on disk, while the
// fsyncs-per-append ratio drops with concurrency instead of staying
// pinned at 1.
//
// Single-goroutine pipelines (the applier, the receiver's fabric handler)
// must not block once per record or the coalescing collapses back to one
// record per sync; they use AppendNoWait to buffer and keep going, and
// gate their downstream acknowledgements on DurableLSN/WaitDurable — the
// two-phase barrier geostore's release path builds (partition records
// durable first, then the stream position that vouches for them).

import (
	"fmt"
	"time"

	"eunomia/internal/metrics"
)

// DefaultGroupMaxBatch caps how many records accumulate before the
// committer cuts an accumulation delay short. Irrelevant at the default
// zero delay; a backstop against unbounded buffering when a delay is set.
const DefaultGroupMaxBatch = 4096

// Options parameterizes OpenOptions/OpenStoreOptions.
type Options struct {
	Policy SyncPolicy
	// GroupDelay (SyncGroupCommit only) is how long the committer waits
	// after waking before it syncs, widening batches at the cost of ack
	// latency. The zero default syncs as soon as the previous sync
	// returns: batches form naturally from whatever arrived while the
	// disk was busy, and a lone appender still pays only one fsync of
	// latency.
	GroupDelay time.Duration
	// GroupMaxBatch (SyncGroupCommit only) cuts GroupDelay short once
	// this many records are waiting. DefaultGroupMaxBatch when <= 0.
	GroupMaxBatch int
	// Metrics, optional, receives fsync latency and commit batch sizes.
	Metrics *SyncMetrics
	// InjectSync, optional, is the fault-injection seam: it is consulted
	// immediately before every fsync, and a non-nil return is treated
	// exactly like the fsync failing with that error (sticky sync error,
	// failed waiters) without touching the file. internal/faults wires
	// its per-component armed errors through here.
	InjectSync func() error
}

func (o Options) withDefaults() Options {
	if o.GroupDelay < 0 {
		o.GroupDelay = 0
	}
	if o.GroupMaxBatch <= 0 {
		o.GroupMaxBatch = DefaultGroupMaxBatch
	}
	return o
}

// SyncMetrics collects durability observability for one log: every fsync's
// latency and, per durability advance, how many records it covered —
// Records/Commits is the realized group-commit batch size (1.0 means no
// coalescing: one fsync per record). The zero counters are ready
// to use; Fsync may be nil to skip latency recording.
type SyncMetrics struct {
	Fsync   *metrics.Histogram
	Commits metrics.Counter
	Records metrics.Counter
	// SyncErrors counts sticky sync-error transitions: it advances once
	// when a log's first fsync (or injected fault) fails and durability
	// stops being promisable. Exported as eunomia_wal_sync_errors_total;
	// a nonzero value also fails the frontend /healthz.
	SyncErrors metrics.Counter
	// CompactErrors counts failed snapshot compactions (Store.Snapshot):
	// a capture that could not be written, a snapshot that could not be
	// installed durably, or — the dangerous one — a log truncation that
	// failed after the snapshot was installed, which leaves the replay
	// tail growing behind the operator's back. Exported as
	// eunomia_wal_compact_errors_total.
	CompactErrors metrics.Counter
}

// NewSyncMetrics returns a SyncMetrics with the latency histogram armed.
func NewSyncMetrics() *SyncMetrics {
	return &SyncMetrics{Fsync: metrics.NewHistogram()}
}

// AppendNoWait writes one record and returns its LSN without waiting for
// group durability: under SyncGroupCommit the record is buffered and the
// committer woken, under SyncOnFlush it is buffered for the next Flush.
// Callers that must not acknowledge past disk gate on WaitDurable(lsn) or
// DurableLSN().
func (l *Log) AppendNoWait(payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	lsn, err := l.appendLocked(payload)
	if err != nil {
		return 0, err
	}
	if l.policy == SyncGroupCommit {
		l.pokeCommitter()
	}
	return lsn, nil
}

// WaitDurable blocks until the record at lsn is on disk. Under
// SyncOnFlush, which has no committer, it forces the sync itself (one
// Flush) instead of waiting for a cadence that may never come.
func (l *Log) WaitDurable(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.durable >= lsn {
		return nil
	}
	if l.policy != SyncGroupCommit {
		if l.shutdown || l.closed {
			return ErrClosed
		}
		return l.syncLocked()
	}
	l.pokeCommitter()
	return l.waitDurableLocked(lsn)
}

// AppendedLSN returns the LSN of the newest appended record.
func (l *Log) AppendedLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appended
}

// DurableLSN returns the LSN of the newest record known to be on disk.
func (l *Log) DurableLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

// OnCommit registers fn to observe every durability advance. fn runs with
// the log's lock held: it must be non-blocking (poke a channel, bump a
// counter) and must not re-enter the Log or its Store.
func (l *Log) OnCommit(fn func(durable uint64)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.onCommit = append(l.onCommit, fn)
}

// SyncErr returns the sticky sync error, nil while the log's durability
// promise holds. A log whose SyncErr is set keeps serving reads and
// buffered appends but can never acknowledge durability again; the
// owning component surfaces it (metrics, /healthz) and the node needs a
// restart onto a healthy disk.
func (l *Log) SyncErr() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncErr
}

// pokeCommitter wakes the committer goroutine; the buffered channel makes
// repeat pokes free.
func (l *Log) pokeCommitter() {
	if l.wake == nil {
		return
	}
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// committer is the SyncGroupCommit worker: woken by appends, it optionally
// waits out the accumulation delay, then folds everything buffered so far
// into one fsync and completes the covered waits. While its fsync is in
// flight the log's lock is free, so new appends keep accumulating — that
// overlap is where the batching comes from.
func (l *Log) committer() {
	defer close(l.stopped)
	for {
		select {
		case <-l.stop:
			return
		case <-l.wake:
		}
		if l.groupDelay > 0 {
			l.mu.Lock()
			pending := l.appended - l.durable
			l.mu.Unlock()
			if pending < uint64(l.groupMax) {
				timer := time.NewTimer(l.groupDelay)
				select {
				case <-l.stop:
					timer.Stop()
					return
				case <-timer.C:
				}
			}
		}
		l.commitOnce()
	}
}

// commitOnce performs one group commit: flush the buffer under the lock,
// fsync outside it, then advance the durable watermark to the appended
// LSN captured at flush time (later appends ride the next commit).
func (l *Log) commitOnce() {
	l.mu.Lock()
	if l.shutdown || l.closed || l.syncErr != nil || l.appended == l.durable {
		l.mu.Unlock()
		return
	}
	target := l.appended
	if err := l.w.Flush(); err != nil {
		l.failCommitLocked(err)
		l.mu.Unlock()
		return
	}
	l.mu.Unlock()

	start := time.Now()
	err := l.sync()
	elapsed := time.Since(start)

	l.mu.Lock()
	if l.metrics != nil && l.metrics.Fsync != nil {
		l.metrics.Fsync.RecordDuration(elapsed)
	}
	if err != nil {
		l.failCommitLocked(err)
	} else {
		l.advanceDurableLocked(target)
	}
	l.mu.Unlock()
}

// failCommitLocked records the sticky sync error and fails every waiter:
// durability can no longer be promised, and pretending otherwise by
// retrying silently would let acknowledgements pass a failed disk. The
// first failure advances the SyncErrors counter (the transition is what
// operators alert on; later calls just return the sticky error).
func (l *Log) failCommitLocked(err error) error {
	if l.syncErr == nil {
		l.syncErr = fmt.Errorf("wal: %w", err)
		if l.metrics != nil {
			l.metrics.SyncErrors.Inc()
		}
	}
	l.commit.Broadcast()
	return l.syncErr
}

// abandon simulates a crash for tests: the committer stops, the file
// handle closes, and — unlike Close — nothing buffered is flushed, so the
// unsynced tail is lost exactly as a kill -9 would lose it.
func (l *Log) abandon() {
	l.mu.Lock()
	if l.shutdown {
		l.mu.Unlock()
		return
	}
	l.shutdown = true
	l.mu.Unlock()
	if l.stop != nil {
		close(l.stop)
		<-l.stopped
	}
	l.mu.Lock()
	l.closed = true
	l.commit.Broadcast()
	_ = l.f.Close()
	l.mu.Unlock()
}
