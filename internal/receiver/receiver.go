// Package receiver implements Algorithm 5 of the paper: the per-datacenter
// component that accepts the causally ordered update streams shipped by
// remote Eunomia services and releases each update to the local partitions
// once its causal dependencies are satisfied.
//
// Because every origin ships its updates totally ordered by the origin
// entry of their vector timestamp, dependency checking is trivial — the
// paper's key payoff versus global stabilization: the receiver maintains
// one FIFO queue per remote datacenter plus the SiteTime vector of latest
// applied timestamps, and releases a queue head when every other remote
// entry of its vector is already covered by SiteTime.
//
// The receiver tolerates duplicate and overlapping streams (they arise
// during Eunomia leader failover) by discarding updates whose origin
// timestamp does not advance past what is already enqueued or applied.
package receiver

import (
	"errors"
	"sync"
	"time"

	"eunomia/internal/hlc"
	"eunomia/internal/metrics"
	"eunomia/internal/types"
	"eunomia/internal/vclock"
	"eunomia/internal/wal"
)

// ApplyFunc hands a released update on toward the responsible partition.
// It returns false only when the release path is closed or wedged; the
// receiver then keeps the update queued without advancing SiteTime, and
// retries it on the next arrival.
type ApplyFunc func(u *types.Update, metaArrived time.Time) bool

// Config parameterises a receiver.
type Config struct {
	DC    types.DCID // m, the local datacenter
	DCs   int        // M
	Apply ApplyFunc
	// Released, optional, is called at the end of each Flush that
	// released something, so a release path can send the pass's releases
	// together.
	Released func()
}

// Receiver coordinates remote update execution for one datacenter.
type Receiver struct {
	cfg Config

	mu       sync.Mutex
	queues   [][]entry // indexed by origin DC; queues[m] unused
	lastEnq  vclock.V  // largest origin timestamp enqueued per origin
	siteTime vclock.V  // SiteTime_m: latest applied per origin
	// advanced is closed (and replaced) whenever SiteTime advances, or
	// when NotifyAdvance reports a watermark the deployment derives from
	// it; visibility waits park on it.
	advanced chan struct{}

	// Durable state (nil st = volatile receiver, the original behavior).
	// Everything the receiver must not lose across a crash goes through
	// st: enqueued updates (KindPending, logged before release is
	// possible) and durable-apply watermarks (KindSite, logged by
	// MarkDurable once the deployment confirms an apply reached stable
	// storage at the partition side). retain holds applied-but-not-yet-
	// durable entries so a snapshot never compacts them away: on
	// recovery they re-release, and partitions deduplicate by applied
	// watermark.
	st          *wal.Store
	durableSite vclock.V
	retain      [][]entry

	flushMu  sync.Mutex    // one Flush at a time
	wake     chan struct{} // 1-slot: new work for the CHECK_PENDING loop
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// Enqueued, Applied, DupDropped count receiver activity.
	Enqueued   metrics.Counter
	Applied    metrics.Counter
	DupDropped metrics.Counter
	// Recovered counts entries rebuilt from the WAL by Recover.
	Recovered metrics.Counter
}

type entry struct {
	u       *types.Update
	arrived time.Time
}

// New starts a volatile receiver. Apply must be set.
func New(cfg Config) *Receiver {
	r, err := build(cfg, nil)
	if err != nil {
		panic(err) // unreachable without a store
	}
	return r
}

// Recover starts a durable receiver backed by the snapshot+log store in
// dir, first rebuilding SiteTime and the pending queues from it: a
// restarted receiver process resumes releasing where its durable state
// left off instead of needing a full resync from every origin. Entries
// applied before the crash but not yet confirmed durable (MarkDurable)
// are re-released; partitions deduplicate them by applied watermark.
func Recover(cfg Config, dir string, policy wal.SyncPolicy) (*Receiver, error) {
	return RecoverOptions(cfg, dir, wal.Options{Policy: policy})
}

// RecoverOptions is Recover with the full store option set (group-commit
// knobs, sync metrics); see wal.Options.
func RecoverOptions(cfg Config, dir string, o wal.Options) (*Receiver, error) {
	st, err := wal.OpenStoreOptions(dir, o)
	if err != nil {
		return nil, err
	}
	r, err := build(cfg, st)
	if err != nil {
		st.Close()
		return nil, err
	}
	return r, nil
}

func build(cfg Config, st *wal.Store) (*Receiver, error) {
	if cfg.Apply == nil {
		panic("receiver: Config.Apply is required")
	}
	r := &Receiver{
		cfg:      cfg,
		queues:   make([][]entry, cfg.DCs),
		lastEnq:  vclock.New(cfg.DCs),
		siteTime: vclock.New(cfg.DCs),
		advanced: make(chan struct{}),
		st:       st,
		wake:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
	}
	if st != nil {
		r.durableSite = vclock.New(cfg.DCs)
		r.retain = make([][]entry, cfg.DCs)
		if err := r.replay(); err != nil {
			return nil, err
		}
	}
	r.wg.Add(1)
	go r.loop()
	return r, nil
}

// replay rebuilds the receiver's state from its store. Pending records
// replay in enqueue order per origin, so the lastEnq filter drops the
// duplicates a snapshot crash window can produce; site records advance
// the durable watermark, and queue prefixes at or below it (durably
// applied before the crash) are pruned afterwards.
func (r *Receiver) replay() error {
	err := r.st.Replay(func(rec []byte) error {
		if len(rec) == 0 {
			return wal.ErrBadRecord
		}
		switch rec[0] {
		case wal.KindSite:
			k, ts, err := wal.DecodeSite(rec)
			if err != nil {
				return err
			}
			if int(k) < len(r.durableSite) && ts > r.durableSite[k] {
				r.durableSite[k] = ts
			}
			return nil
		case wal.KindPending:
			_, u, err := wal.DecodeUpdate(rec)
			if err != nil {
				return err
			}
			k := u.Origin
			if int(k) >= len(r.queues) {
				return nil // deployment shrank; drop the stray origin
			}
			ts := u.VTS.Get(int(k))
			if ts <= r.lastEnq[k] {
				return nil // double replay after a snapshot crash window
			}
			r.lastEnq[k] = ts
			r.queues[k] = append(r.queues[k], entry{u: u, arrived: time.Now()})
			r.Recovered.Inc()
			return nil
		default:
			return nil // future record kinds are not ours to reject
		}
	})
	if err != nil {
		return err
	}
	for k := range r.queues {
		q := r.queues[k]
		drop := 0
		for drop < len(q) && q[drop].u.VTS.Get(k) <= r.durableSite[k] {
			drop++
		}
		if drop > 0 {
			r.queues[k] = append([]entry(nil), q[drop:]...)
		}
		if len(r.queues[k]) > 0 {
			r.kick() // release what recovery restored without waiting for an arrival
		}
		// SiteTime restarts at the durable watermark: anything above it
		// re-releases, and the partitions' own durable watermarks make
		// the re-application idempotent.
		r.siteTime[k] = r.durableSite[k]
		if r.lastEnq[k] < r.siteTime[k] {
			r.lastEnq[k] = r.siteTime[k]
		}
	}
	return nil
}

// Enqueue accepts a batch of updates shipped by origin datacenter k, in
// ascending origin-timestamp order (NEW_UPDATE of Algorithm 5). Updates
// whose origin timestamp is not beyond both the queue tail and SiteTime[k]
// are duplicates from a prior or concurrent leader and are dropped.
func (r *Receiver) Enqueue(k types.DCID, batch []*types.Update) {
	now := time.Now()
	accepted, enqueued := false, false
	var lastLSN uint64
	r.mu.Lock()
	for _, u := range batch {
		ts := u.VTS.Get(int(k))
		if ts <= r.lastEnq[k] || ts <= r.siteTime[k] {
			r.DupDropped.Inc()
			continue
		}
		if r.st != nil {
			// Log before the flush loop can release it: once an update
			// is accepted here the origin never re-ships it, so losing
			// it to a crash would leave a permanent causal gap. A closed
			// store means the receiver is shutting down — the late
			// delivery is dropped like any message to a dead process.
			// No-wait appends keep the batch together; the durability
			// wait below covers the whole batch at once.
			lsn, err := r.st.AppendNoWait(wal.EncodeUpdate(wal.KindPending, u))
			if err != nil {
				if errors.Is(err, wal.ErrClosed) {
					continue
				}
				panic("receiver: WAL append failed: " + err.Error())
			}
			lastLSN = lsn
			accepted = true
		}
		r.lastEnq[k] = ts
		r.queues[k] = append(r.queues[k], entry{u: u, arrived: now})
		r.Enqueued.Inc()
		enqueued = true
	}
	st := r.st
	r.mu.Unlock()
	if accepted && st != nil {
		// One fsync per shipped batch (under SyncOnFlush): the paper's
		// 1ms batching cadence bounds the loss window to one batch. Under
		// SyncGroupCommit the wait rides the committer instead — shipped
		// batches from many origins coalesce into shared fsyncs.
		var err error
		if st.Policy() == wal.SyncGroupCommit {
			err = st.WaitDurable(lastLSN)
		} else {
			err = st.Flush()
		}
		if err != nil && !errors.Is(err, wal.ErrClosed) {
			panic("receiver: WAL flush failed: " + err.Error())
		}
	}
	if enqueued {
		r.kick()
	}
}

// kick wakes the CHECK_PENDING loop, which otherwise sleeps: the paper's
// ρ-periodic round is replaced by wakes from what can unblock a release,
// an arrival (Enqueue) or a recovered queue (replay). Kicks coalesce.
func (r *Receiver) kick() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// Advanced returns a channel that is closed the next time SiteTime
// advances (or NotifyAdvance is called). Take it before reading the state
// it guards, so an advance between the read and the wait is not missed.
func (r *Receiver) Advanced() <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.advanced
}

// NotifyAdvance wakes every Advanced waiter. The receiver calls it when
// SiteTime advances; the deployment also calls it when release
// acknowledgements move the watermark its visibility waits answer from.
func (r *Receiver) NotifyAdvance() {
	r.mu.Lock()
	close(r.advanced)
	r.advanced = make(chan struct{})
	r.mu.Unlock()
}

// SiteTime returns a copy of the applied-updates vector.
func (r *Receiver) SiteTime() vclock.V {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.siteTime.Clone()
}

// QueueLen returns the number of pending updates from origin k.
func (r *Receiver) QueueLen(k types.DCID) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.queues[k])
}

// Flush runs dependency resolution until no further progress is possible,
// equivalent to the tail-recursive FLUSH of Algorithm 5. It is exported so
// tests can drive the receiver deterministically; calls serialize with
// the loop's, since each pops the queue heads it applied.
func (r *Receiver) Flush() {
	r.flushMu.Lock()
	defer r.flushMu.Unlock()
	m := int(r.cfg.DC)
	released := false
	defer func() {
		if released && r.cfg.Released != nil {
			r.cfg.Released()
		}
	}()
	for {
		progress := false
		for k := 0; k < r.cfg.DCs; k++ {
			if k == m {
				continue
			}
			applied := false
			for {
				r.mu.Lock()
				if len(r.queues[k]) == 0 {
					r.mu.Unlock()
					break
				}
				head := r.queues[k][0]
				if !r.depsSatisfiedLocked(head.u, k) {
					r.mu.Unlock()
					break
				}
				r.mu.Unlock()

				// Apply outside the lock: the partition may take its own
				// locks and fire visibility callbacks.
				if !r.cfg.Apply(head.u, head.arrived) {
					break // release path closed or wedged
				}

				r.mu.Lock()
				r.siteTime[k] = head.u.VTS.Get(k)
				if r.st != nil {
					// Applied but not yet durable at the partition side:
					// keep the entry so snapshots preserve it; it drops
					// when MarkDurable covers its timestamp.
					r.retain[k] = append(r.retain[k], head)
				}
				r.queues[k] = r.queues[k][1:]
				if len(r.queues[k]) == 0 {
					r.queues[k] = nil
				}
				r.mu.Unlock()
				r.Applied.Inc()
				progress, applied = true, true
			}
			if applied {
				released = true
				r.NotifyAdvance()
			}
		}
		if !progress {
			return
		}
	}
}

// depsSatisfiedLocked checks Algorithm 5 line 12: every remote dependency
// entry other than the origin's own must already be applied locally.
func (r *Receiver) depsSatisfiedLocked(u *types.Update, k int) bool {
	m := int(r.cfg.DC)
	for d := 0; d < r.cfg.DCs; d++ {
		if d == m || d == k {
			continue
		}
		if r.siteTime[d] < u.VTS.Get(d) {
			return false
		}
	}
	return true
}

// SiteTimeEntry returns SiteTime[k].
func (r *Receiver) SiteTimeEntry(k types.DCID) hlc.Timestamp {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.siteTime[k]
}

// MarkDurable records that every update from origin k at or below ts has
// been durably applied (the deployment calls it once the partition side's
// WAL covers the apply, when the release window prunes it). The durable watermark
// is what Recover restarts SiteTime from; retained entries it covers are
// released for compaction. The record is buffered — FlushWAL (or the next
// snapshot) makes it stable, and an unflushed mark merely means a little
// extra re-release work after a crash.
func (r *Receiver) MarkDurable(k types.DCID, ts hlc.Timestamp) {
	if r.st == nil || int(k) >= len(r.durableSite) {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if ts <= r.durableSite[k] {
		return
	}
	if _, err := r.st.AppendNoWait(wal.EncodeSite(k, ts)); err != nil {
		if errors.Is(err, wal.ErrClosed) {
			return // shutdown race with a late durability ack
		}
		panic("receiver: WAL append failed: " + err.Error())
	}
	r.durableSite[k] = ts
	keep := r.retain[k]
	drop := 0
	for drop < len(keep) && keep[drop].u.VTS.Get(int(k)) <= ts {
		drop++
	}
	if drop > 0 {
		r.retain[k] = append([]entry(nil), keep[drop:]...)
	}
}

// DurableSiteEntry returns the durable watermark for origin k (0 for a
// volatile receiver).
func (r *Receiver) DurableSiteEntry(k types.DCID) hlc.Timestamp {
	if r.st == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.durableSite[k]
}

// Retained reports applied-but-not-yet-durable entries buffered for
// snapshot preservation (tests; 0 for a volatile receiver).
func (r *Receiver) Retained() int {
	if r.st == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, q := range r.retain {
		n += len(q)
	}
	return n
}

// FlushWAL forces buffered records (pending updates, durable-site marks)
// to stable storage. No-op for a volatile receiver.
func (r *Receiver) FlushWAL() error {
	if r.st == nil {
		return nil
	}
	return r.st.Flush()
}

// WALSize reports the live log's size (0 for a volatile receiver).
func (r *Receiver) WALSize() int64 {
	if r.st == nil {
		return 0
	}
	return r.st.LogSize()
}

// WALSyncErr reports the store's sticky sync error (nil for a volatile
// receiver, and while durability holds); see wal.Log.SyncErr.
func (r *Receiver) WALSyncErr() error {
	if r.st == nil {
		return nil
	}
	return r.st.SyncErr()
}

// MaybeSnapshot compacts the store when the log outgrows threshold
// (wal.DefaultSnapshotThreshold when <= 0): the snapshot is the durable
// watermark per origin plus every entry not yet covered by it (retained
// and still-queued), which is exactly what replay rebuilds.
func (r *Receiver) MaybeSnapshot(threshold int64) (bool, error) {
	if r.st == nil {
		return false, nil
	}
	if threshold <= 0 {
		threshold = wal.DefaultSnapshotThreshold
	}
	if r.st.LogSize() < threshold {
		return false, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	err := r.st.Snapshot(func(emit func([]byte) error) error {
		for k := range r.queues {
			if r.durableSite[k] > 0 {
				if err := emit(wal.EncodeSite(types.DCID(k), r.durableSite[k])); err != nil {
					return err
				}
			}
			for _, e := range r.retain[k] {
				if err := emit(wal.EncodeUpdate(wal.KindPending, e.u)); err != nil {
					return err
				}
			}
			for _, e := range r.queues[k] {
				if err := emit(wal.EncodeUpdate(wal.KindPending, e.u)); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return false, err
	}
	return true, nil
}

// Close stops the CHECK_PENDING loop and, for a durable receiver, flushes
// and closes the store.
func (r *Receiver) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
	if r.st != nil {
		_ = r.st.Close()
	}
}

// loop is the CHECK_PENDING driver: it resolves dependencies each time
// kick reports new work and never polls.
func (r *Receiver) loop() {
	defer r.wg.Done()
	for {
		select {
		case <-r.stop:
			return
		case <-r.wake:
		}
		r.Flush()
	}
}
