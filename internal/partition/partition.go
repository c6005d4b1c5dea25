// Package partition implements the EunomiaKV datacenter partition server —
// Algorithm 2 of the paper extended with the geo-replication tagging of §4
// and the data/metadata separation of §5.
//
// A partition serializes updates to its key range, tags each with a hybrid
// logical timestamp strictly greater than the client's causal history and
// than every timestamp it previously issued (Properties 1 and 2), stores
// the version, hands the lightweight metadata to the local Eunomia service
// through the batching client, and ships the payload directly to its
// sibling partitions at remote datacenters. Remote updates are applied when
// the local receiver has established that their causal dependencies are
// satisfied and the payload has arrived.
package partition

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"eunomia/internal/eunomia"
	"eunomia/internal/hlc"
	"eunomia/internal/kvstore"
	"eunomia/internal/metrics"
	"eunomia/internal/types"
	"eunomia/internal/vclock"
	"eunomia/internal/wal"
)

// PayloadShipper sends an update's payload to the sibling partitions of
// every remote datacenter. The geo store backs it with simnet sends; unit
// tests use in-memory fakes. Shipping happens outside the client's
// critical path and needs no ordering guarantees (§5).
type PayloadShipper interface {
	ShipPayload(u *types.Update)
}

// VisibleFunc observes a remote update becoming visible locally, with the
// instant its payload arrived; the harness derives visibility latencies
// (Figures 6 and 7) from it.
type VisibleFunc func(u *types.Update, payloadArrived time.Time)

// Config parameterises a partition.
type Config struct {
	DC    types.DCID
	ID    types.PartitionID
	DCs   int // M, number of datacenters
	Clock hlc.PhysSource
	// SeparateData enables §5 data/metadata separation (the prototype's
	// configuration): Eunomia carries only ids, payloads travel
	// partition-to-partition. When false, full updates flow through
	// Eunomia and arrive via the receiver alone.
	SeparateData bool
	// OnVisible, optional, observes remote update visibility.
	OnVisible VisibleFunc
	// Store, optional, makes the partition durable: every locally
	// accepted update and every applied remote update is logged before
	// the operation is acknowledged, and MaybeSnapshot compacts the log
	// into a snapshot as it grows. Recover rebuilds a partition from the
	// store after a crash.
	Store *wal.Store
	// Backend, optional, supplies the version store (kvstore.New() when
	// nil). A kvstore.Persistent backend changes the snapshot contract:
	// MaybeSnapshot syncs the backend's segments and writes a marks-only
	// WAL snapshot instead of re-emitting every live version, and
	// Recover floors the clock on the backend's recovered versions. The
	// backend's lifetime belongs to the caller (Close is not chained).
	Backend kvstore.Store
}

// Partition is one logical partition server. All methods are safe for
// concurrent use.
type Partition struct {
	cfg   Config
	clock *hlc.Clock
	store kvstore.Store

	seqMu sync.Mutex
	seq   uint64

	euClient *eunomia.Client
	shipper  PayloadShipper

	// durMu makes a WAL append and the state mutation it records atomic
	// with respect to snapshots: writers hold it shared across the
	// append+apply pair, MaybeSnapshot holds it exclusively while it
	// captures state and truncates the log, so no record is truncated
	// before its effects are visible to the capture. Lock order is
	// durMu before the store's internal lock.
	durMu sync.RWMutex

	// payloadMu guards the payload/arrival buffers for remote updates
	// whose metadata has not yet been released by the receiver, and the
	// per-origin applied watermark.
	payloadMu sync.Mutex
	payloads  map[types.UpdateID]*types.Update
	arrivals  map[types.UpdateID]time.Time
	// appliedRemote[origin] is the highest origin timestamp applied via
	// ApplyRemote. Releases from one origin arrive in ascending
	// timestamp order (the receiver serializes them), so the watermark
	// makes retried releases — the cross-process receiver path is
	// at-least-once — idempotent even if the stored version has since
	// been overwritten.
	appliedRemote map[types.DCID]hlc.Timestamp
	// parked records that a release found its payload missing since the
	// last payload arrival; ReceivePayload reports it so the deployment
	// can wake the receiver instead of waiting for its retry tick.
	parked bool

	// Reads, Updates, RemoteApplied count operations for reports.
	Reads         metrics.Counter
	Updates       metrics.Counter
	RemoteApplied metrics.Counter
	// PayloadWait counts the times a release parked on a missing payload
	// (§7.2.2 observes this is rare because payloads ship immediately
	// while metadata waits for stabilization). A retry that finds the
	// partition still parked — no payload arrived since — is the same
	// park and is not counted again.
	PayloadWait metrics.Counter
}

// New constructs a partition. The Eunomia batching client and payload
// shipper are attached afterwards (Attach) because they need the
// partition's clock.
func New(cfg Config) *Partition {
	if cfg.DCs <= 0 {
		cfg.DCs = 1
	}
	store := cfg.Backend
	if store == nil {
		store = kvstore.New()
	}
	return &Partition{
		cfg:           cfg,
		clock:         hlc.NewClock(cfg.Clock),
		store:         store,
		payloads:      make(map[types.UpdateID]*types.Update),
		arrivals:      make(map[types.UpdateID]time.Time),
		appliedRemote: make(map[types.DCID]hlc.Timestamp),
	}
}

// Clock exposes the partition's hybrid clock (the Eunomia client shares it
// so heartbeat timestamps dominate issued timestamps).
func (p *Partition) Clock() *hlc.Clock { return p.clock }

// Store exposes the underlying version store for convergence checks.
func (p *Partition) Store() kvstore.Store { return p.store }

// Attach wires the Eunomia batching client and the payload shipper.
// Either may be nil (the service-saturation experiments drive Eunomia
// without partitions; single-DC tests need no shipper).
func (p *Partition) Attach(eu *eunomia.Client, shipper PayloadShipper) {
	p.euClient = eu
	p.shipper = shipper
}

// EunomiaClient returns the attached batching client (nil before Attach).
func (p *Partition) EunomiaClient() *eunomia.Client { return p.euClient }

// Read implements the partition side of Algorithm 1/2 READ: it returns the
// stored value and the vector timestamp of the update that produced it.
// Missing keys return a nil value and a nil vector (no dependency).
func (p *Partition) Read(key types.Key) (types.Value, vclock.V) {
	p.Reads.Inc()
	v, ok := p.store.Get(key)
	if !ok {
		return nil, nil
	}
	return v.Value, v.VTS
}

// Update implements Algorithm 2 UPDATE with §4's vector tagging: the local
// entry is max(Clock_n, MaxTs_n+1, VClock_c[m]+1); remote entries copy the
// client's vector. It stores the version, forwards metadata to Eunomia and
// ships the payload, then returns the update's vector timestamp, which the
// client adopts wholesale (it strictly dominates VClock_c).
func (p *Partition) Update(key types.Key, value types.Value, dep vclock.V) vclock.V {
	p.Updates.Inc()
	m := int(p.cfg.DC)
	// The Eunomia client issues the stream's timestamps. Reserving holds
	// the stream's watermark below ts while the WAL append runs, so no
	// heartbeat can promise past the update before Add enqueues it.
	var ts hlc.Timestamp
	if p.euClient != nil {
		ts = p.euClient.Reserve(dep.Get(m))
	} else {
		ts = p.clock.Tick(dep.Get(m)) // no stream to propagate on
	}

	vts := vclock.New(p.cfg.DCs)
	copy(vts, dep)
	vts.Set(m, ts)

	p.seqMu.Lock()
	p.seq++
	seq := p.seq
	p.seqMu.Unlock()

	u := &types.Update{
		Key:       key,
		Value:     value.Clone(),
		Origin:    p.cfg.DC,
		Partition: p.cfg.ID,
		Seq:       seq,
		TS:        ts,
		VTS:       vts.Clone(),
		CreatedAt: time.Now().UnixNano(),
	}

	if p.cfg.Store != nil {
		p.durMu.RLock()
		// Log before acknowledging: the update must survive a crash
		// once the client has seen its timestamp.
		if err := p.cfg.Store.Append(wal.EncodeUpdate(wal.KindLocal, u)); err != nil {
			p.durMu.RUnlock()
			panic("partition: WAL append failed: " + err.Error())
		}
		p.store.Apply(key, types.Version{Value: u.Value, TS: ts, VTS: u.VTS, Origin: p.cfg.DC})
		p.durMu.RUnlock()
	} else {
		// Store through the LWW path so a concurrent remote version with
		// a larger timestamp is never shadowed; see kvstore.Apply.
		p.store.Apply(key, types.Version{Value: u.Value, TS: ts, VTS: u.VTS, Origin: p.cfg.DC})
	}

	if p.euClient != nil {
		if p.cfg.SeparateData {
			p.euClient.Add(u.Meta())
		} else {
			p.euClient.Add(u)
		}
	}
	if p.shipper != nil && p.cfg.SeparateData {
		p.shipper.ShipPayload(u)
	}
	return vts
}

// ReceivePayload ingests an update payload shipped directly by a sibling
// partition (§5). Payloads may arrive in any order and ahead of their
// metadata; they are buffered until the receiver releases the metadata.
// It reports whether a release was parked on a missing payload since the
// previous arrival — the caller's cue to retry releases now.
// Durable partitions log the payload first: the sibling prunes it once
// the transport acknowledges delivery, so a crash would otherwise lose
// every buffered payload and stall the release stream on recovery. A
// payload arriving after the store closed (a delivery racing shutdown) is
// dropped: the origin re-ships it when the recovered stream pulls it.
func (p *Partition) ReceivePayload(u *types.Update) (unparked bool) {
	id := u.ID()
	if p.cfg.Store == nil {
		p.payloadMu.Lock()
		if _, ok := p.payloads[id]; !ok {
			p.payloads[id] = u
			p.arrivals[id] = time.Now()
		}
		unparked, p.parked = p.parked, false
		p.payloadMu.Unlock()
		return unparked
	}
	p.durMu.RLock()
	p.payloadMu.Lock()
	if _, ok := p.payloads[id]; !ok && u.TS > p.appliedRemote[u.Origin] {
		// No-wait append: payload ingestion runs on the fabric delivery
		// goroutine, which must not stall one fsync per payload under
		// SyncGroupCommit. The loss window stays what it was — the sibling
		// prunes on transport ack either way — and the group committer (or
		// the next flush cadence) persists the record promptly.
		if _, err := p.cfg.Store.AppendNoWait(wal.EncodeUpdate(wal.KindPayload, u)); err != nil {
			p.payloadMu.Unlock()
			p.durMu.RUnlock()
			if errors.Is(err, wal.ErrClosed) {
				return false
			}
			panic("partition: WAL append failed: " + err.Error())
		}
		p.payloads[id] = u
		p.arrivals[id] = time.Now()
	}
	unparked, p.parked = p.parked, false
	p.payloadMu.Unlock()
	p.durMu.RUnlock()
	return unparked
}

// SkipRemote resolves a release whose payload was lost to a crash and
// whose origin reports the version superseded: the applied watermark
// advances (so the stream can proceed in causal order) without storing
// anything — the superseding version is ordered after this one and
// carries its own payload.
func (p *Partition) SkipRemote(u *types.Update) {
	if p.cfg.Store != nil {
		p.durMu.RLock()
		defer p.durMu.RUnlock()
	}
	p.payloadMu.Lock()
	if u.TS <= p.appliedRemote[u.Origin] {
		p.payloadMu.Unlock()
		return
	}
	p.appliedRemote[u.Origin] = u.TS
	p.payloadMu.Unlock()
	p.clock.Observe(u.TS)
	if p.cfg.Store != nil {
		if _, err := p.cfg.Store.AppendNoWait(wal.EncodeUpdate(wal.KindSkip, u.Meta())); err != nil {
			panic("partition: WAL append failed: " + err.Error())
		}
	}
	p.RemoteApplied.Inc()
}

// ApplyRemote is invoked by the local receiver once the update's causal
// dependencies are satisfied (Algorithm 5 line 14). metaArrived is the
// instant the receiver first saw the metadata. For metadata-only updates
// ApplyRemote consults the payload buffer and reports false if the payload
// has not arrived yet — the receiver retries on its next pass. On success
// the version is merged under LWW, the partition clock observes the
// remote timestamp, and the visibility callback fires with the data
// arrival instant (§7.2.2 measures visibility latency from data arrival).
func (p *Partition) ApplyRemote(u *types.Update, metaArrived time.Time) bool {
	full := u
	arrived := metaArrived // when the payload rides along, data == metadata
	if p.cfg.Store != nil {
		// The whole consume→log→apply sequence sits inside the shared
		// durability lock so a snapshot can never capture the advanced
		// watermark while the version record is still in flight.
		p.durMu.RLock()
		defer p.durMu.RUnlock()
	}
	p.payloadMu.Lock()
	if u.TS <= p.appliedRemote[u.Origin] {
		// A previous release already applied this update but its
		// acknowledgement was lost — the cross-process receiver path
		// retries at-least-once. Reporting success keeps the call
		// idempotent (no double counting, no consumed-payload wedge).
		p.payloadMu.Unlock()
		return true
	}
	if u.Value == nil {
		id := u.ID()
		payload, ok := p.payloads[id]
		if !ok {
			if !p.parked {
				p.parked = true
				p.PayloadWait.Inc()
			}
			p.payloadMu.Unlock()
			return false
		}
		arrived = p.arrivals[id]
		delete(p.payloads, id)
		delete(p.arrivals, id)
		full = payload
	}
	p.appliedRemote[u.Origin] = u.TS
	p.payloadMu.Unlock()

	p.clock.Observe(full.TS)
	if p.cfg.Store != nil {
		// No-wait append: the applier worker is a single goroutine, and a
		// blocking group-commit append would throttle it to one fsync per
		// record. The release path's durability
		// acks wait on the store's commit watermark instead (geostore's
		// applier gates ReleaseAckMsg.Durable on DurableLSN coverage).
		if _, err := p.cfg.Store.AppendNoWait(wal.EncodeUpdate(wal.KindRemote, full)); err != nil {
			panic("partition: WAL append failed: " + err.Error())
		}
	}
	p.store.Apply(full.Key, types.Version{
		Value: full.Value, TS: full.TS, VTS: full.VTS, Origin: full.Origin,
	})
	p.RemoteApplied.Inc()
	if p.cfg.OnVisible != nil {
		p.cfg.OnVisible(full, arrived)
	}
	return true
}

// ApplyRemoteBatch applies a causally ordered, contiguous run of remote
// updates addressed to this partition in one pass: one payload-buffer
// lock round resolves the run, one WAL record per update is buffered
// (no-wait, see ApplyRemote), and the resolved versions land through
// kvstore.ApplyBatch — one lock acquisition per touched shard, batch-
// atomic visibility, and zero per-update cloning (the arena-backed value
// memory transfers to the store). It applies the longest prefix it can:
// the first update whose payload has not arrived (and is not already
// applied) stops the run, exactly like a false return from ApplyRemote,
// and the caller parks on it. Returns how many updates of the prefix were
// consumed (already-applied duplicates count — they are done).
func (p *Partition) ApplyRemoteBatch(us []*types.Update, metaArrived []time.Time) int {
	if len(us) == 0 {
		return 0
	}
	if p.cfg.Store != nil {
		p.durMu.RLock()
		defer p.durMu.RUnlock()
	}
	// Resolve the run under one payload-lock hold: consume payloads,
	// advance watermarks, and split the prefix into stored versions
	// (full) and idempotent duplicates.
	full := make([]*types.Update, 0, len(us))
	arrived := make([]time.Time, 0, len(us))
	done := 0
	p.payloadMu.Lock()
	for i, u := range us {
		if u.TS <= p.appliedRemote[u.Origin] {
			done = i + 1 // duplicate of an applied update: consumed
			continue
		}
		f, at := u, metaArrived[i]
		if u.Value == nil {
			id := u.ID()
			payload, ok := p.payloads[id]
			if !ok {
				if !p.parked {
					p.parked = true
					p.PayloadWait.Inc()
				}
				break // park here; nothing behind it may jump the queue
			}
			at = p.arrivals[id]
			delete(p.payloads, id)
			delete(p.arrivals, id)
			f = payload
		}
		p.appliedRemote[u.Origin] = u.TS
		full = append(full, f)
		arrived = append(arrived, at)
		done = i + 1
	}
	p.payloadMu.Unlock()
	if len(full) == 0 {
		return done
	}

	entries := make([]kvstore.BatchEntry, len(full))
	for i, f := range full {
		p.clock.Observe(f.TS)
		if p.cfg.Store != nil {
			if _, err := p.cfg.Store.AppendNoWait(wal.EncodeUpdate(wal.KindRemote, f)); err != nil {
				panic("partition: WAL append failed: " + err.Error())
			}
		}
		entries[i] = kvstore.BatchEntry{Key: f.Key, Ver: types.Version{
			Value: f.Value, TS: f.TS, VTS: f.VTS, Origin: f.Origin,
		}}
	}
	p.store.ApplyBatch(entries)
	p.RemoteApplied.Add(int64(len(full)))
	if p.cfg.OnVisible != nil {
		for i, f := range full {
			p.cfg.OnVisible(f, arrived[i])
		}
	}
	return done
}

// PendingPayloads returns the number of buffered payloads awaiting
// metadata, for tests and leak checks.
func (p *Partition) PendingPayloads() int {
	p.payloadMu.Lock()
	defer p.payloadMu.Unlock()
	return len(p.payloads)
}

// Close stops the attached Eunomia client, flushing buffered metadata,
// and flushes the WAL store if one is attached (closing the store itself
// is its owner's job — geostore.Node shares nothing, but tests reuse
// stores across "crashes").
func (p *Partition) Close() {
	if p.euClient != nil {
		p.euClient.Close()
	}
	if p.cfg.Store != nil {
		_ = p.cfg.Store.Flush()
	}
}

// FlushWAL forces logged records to stable storage; the deployment calls
// it on its batch cadence so the SyncOnFlush loss window stays one batch
// wide.
func (p *Partition) FlushWAL() error {
	if p.cfg.Store == nil {
		return nil
	}
	return p.cfg.Store.Flush()
}

// WALSize reports the live log's size (0 without a store).
func (p *Partition) WALSize() int64 {
	if p.cfg.Store == nil {
		return 0
	}
	return p.cfg.Store.LogSize()
}

// Recover rebuilds a partition's state from its configured store: the
// snapshot's records, then the log's, in append order. Versions re-apply
// under the same LWW rule (so double replay after a snapshot crash window
// is harmless), the hybrid clock observes every logged timestamp (so
// post-recovery updates keep Property 2), and the sequence counter and
// per-origin applied watermarks resume from the marks record and the
// replayed updates. Call it on a freshly constructed partition before
// serving traffic.
func (p *Partition) Recover() error {
	if p.cfg.Store == nil {
		return nil
	}
	// Replayed versions accumulate into chunks applied through the
	// store's batch path: replay is single-threaded and LWW is order-
	// independent, so batching is safe and cuts the per-record shard
	// locking that otherwise dominates large restarts.
	const recoverChunk = 256
	batch := make([]kvstore.BatchEntry, 0, recoverChunk)
	flush := func() {
		if len(batch) > 0 {
			p.store.ApplyBatch(batch)
			batch = batch[:0]
		}
	}
	if persistent, ok := p.store.(kvstore.Persistent); ok {
		// The backend recovered its versions from its own segments. Floor
		// the clock on them before replay: a version whose WAL record was
		// lost in the crash window (segment page flushed, log tail not)
		// must still not outrank the next locally issued timestamp.
		p.clock.Observe(persistent.MaxTS())
	}
	err := p.cfg.Store.Replay(func(rec []byte) error {
		if len(rec) > 0 && rec[0] == wal.KindMarks {
			m, err := wal.DecodeMarks(rec)
			if err != nil {
				return err
			}
			p.seqMu.Lock()
			if m.Seq > p.seq {
				p.seq = m.Seq
			}
			p.seqMu.Unlock()
			p.clock.Observe(m.ClockTS)
			p.payloadMu.Lock()
			for origin, ts := range m.Applied {
				if ts > p.appliedRemote[origin] {
					p.appliedRemote[origin] = ts
				}
			}
			p.payloadMu.Unlock()
			return nil
		}
		kind, u, err := wal.DecodeUpdate(rec)
		if err != nil {
			return err
		}
		p.clock.Observe(u.TS)
		switch kind {
		case wal.KindLocal:
			batch = append(batch, kvstore.BatchEntry{Key: u.Key, Ver: types.Version{Value: u.Value, TS: u.TS, VTS: u.VTS, Origin: u.Origin}})
			if len(batch) == recoverChunk {
				flush()
			}
			p.seqMu.Lock()
			if u.Seq > p.seq {
				p.seq = u.Seq
			}
			p.seqMu.Unlock()
		case wal.KindPayload:
			// Buffered, not yet released when logged; a later KindRemote
			// record consumes it (below), so what is left after replay is
			// exactly the still-pending buffer.
			p.payloadMu.Lock()
			if _, ok := p.payloads[u.ID()]; !ok && u.TS > p.appliedRemote[u.Origin] {
				p.payloads[u.ID()] = u
				p.arrivals[u.ID()] = time.Now()
			}
			p.payloadMu.Unlock()
		case wal.KindSkip:
			p.payloadMu.Lock()
			if u.TS > p.appliedRemote[u.Origin] {
				p.appliedRemote[u.Origin] = u.TS
			}
			p.payloadMu.Unlock()
		default: // KindRemote
			batch = append(batch, kvstore.BatchEntry{Key: u.Key, Ver: types.Version{Value: u.Value, TS: u.TS, VTS: u.VTS, Origin: u.Origin}})
			if len(batch) == recoverChunk {
				flush()
			}
			p.payloadMu.Lock()
			if u.TS > p.appliedRemote[u.Origin] {
				p.appliedRemote[u.Origin] = u.TS
			}
			delete(p.payloads, u.ID())
			delete(p.arrivals, u.ID())
			p.payloadMu.Unlock()
		}
		return nil
	})
	flush()
	return err
}

// MaybeSnapshot compacts the store when its log has outgrown threshold
// (wal.DefaultSnapshotThreshold when <= 0): the snapshot carries every
// live version plus a marks record for the state overwritten versions
// took with them (sequence counter, clock floor, applied watermarks).
// With a kvstore.Persistent backend the versions stay in the backend's
// segments: the backend is synced first (so the WAL may stop vouching
// for the records about to be truncated), the snapshot carries only the
// pending payload buffer and the marks record, and the backend's own
// compaction rides the same cadence afterwards. Writers are paused for
// the duration of the state capture.
func (p *Partition) MaybeSnapshot(threshold int64) (bool, error) {
	if p.cfg.Store == nil {
		return false, nil
	}
	if threshold <= 0 {
		threshold = wal.DefaultSnapshotThreshold
	}
	if p.cfg.Store.LogSize() < threshold {
		return false, nil
	}
	if err := p.snapshotNow(); err != nil {
		return false, err
	}
	return true, nil
}

// ForceSnapshot snapshots regardless of log size. Snapshot installation
// (bootstrap) uses it to reach a durable point immediately after a bulk
// apply that bypassed per-record WAL appends.
func (p *Partition) ForceSnapshot() error {
	if p.cfg.Store == nil {
		return nil
	}
	return p.snapshotNow()
}

func (p *Partition) snapshotNow() error {
	p.durMu.Lock()
	defer p.durMu.Unlock()
	persistent, _ := p.store.(kvstore.Persistent)
	if persistent != nil {
		// Segment durability must precede log truncation: once the WAL
		// forgets a record, only the backend's segments hold its version.
		if err := persistent.Sync(); err != nil {
			return err
		}
	}
	err := p.cfg.Store.Snapshot(func(emit func([]byte) error) error {
		var emitErr error
		if persistent == nil {
			p.store.ForEach(func(k types.Key, v types.Version) {
				if emitErr != nil {
					return
				}
				u := &types.Update{
					Key: k, Value: v.Value, Origin: v.Origin,
					Partition: p.cfg.ID, TS: v.TS, VTS: v.VTS,
				}
				// All versions re-enter through the LWW apply path on
				// replay; KindRemote keeps them off the sequence counter,
				// which the marks record restores exactly.
				emitErr = emit(wal.EncodeUpdate(wal.KindRemote, u))
			})
			if emitErr != nil {
				return emitErr
			}
		}
		p.seqMu.Lock()
		seq := p.seq
		p.seqMu.Unlock()
		p.payloadMu.Lock()
		applied := make(map[types.DCID]hlc.Timestamp, len(p.appliedRemote))
		for origin, ts := range p.appliedRemote {
			applied[origin] = ts
		}
		for _, u := range p.payloads {
			if emitErr = emit(wal.EncodeUpdate(wal.KindPayload, u)); emitErr != nil {
				break
			}
		}
		p.payloadMu.Unlock()
		if emitErr != nil {
			return emitErr
		}
		return emit(wal.EncodeMarks(wal.Marks{Seq: seq, ClockTS: p.clock.Last(), Applied: applied}))
	})
	if err != nil {
		return err
	}
	if persistent != nil {
		// Reclaim overwritten records now that the log is compacted; the
		// backend skips shards below its garbage threshold.
		if err := persistent.Compact(); err != nil {
			return err
		}
	}
	return nil
}

// CaptureSnapshot emits a consistent snapshot of the partition at a
// pinned watermark, for shipping to a bootstrapping peer: every live
// version as a KindRemote record, then one marks record whose applied
// map is the watermark vector the capture is consistent at. Writers are
// paused for the duration (the capture holds the durability lock
// exclusively, like MaybeSnapshot).
//
// The marks vector covers the partition's own origin with the clock
// floor: every locally acknowledged update is applied to the store
// before the durability lock is released, so anything at or below the
// floor is either in the capture or superseded within it — the
// installer may safely treat the floor as its applied watermark for
// this origin.
func (p *Partition) CaptureSnapshot(emit func(rec []byte) error) error {
	p.durMu.Lock()
	defer p.durMu.Unlock()
	var emitErr error
	p.store.ForEach(func(k types.Key, v types.Version) {
		if emitErr != nil {
			return
		}
		u := &types.Update{
			Key: k, Value: v.Value, Origin: v.Origin,
			Partition: p.cfg.ID, TS: v.TS, VTS: v.VTS,
		}
		emitErr = emit(wal.EncodeUpdate(wal.KindRemote, u))
	})
	if emitErr != nil {
		return emitErr
	}
	applied := make(map[types.DCID]hlc.Timestamp, p.cfg.DCs)
	p.payloadMu.Lock()
	for origin, ts := range p.appliedRemote {
		applied[origin] = ts
	}
	p.payloadMu.Unlock()
	floor := p.clock.Last()
	applied[p.cfg.DC] = floor
	return emit(wal.EncodeMarks(wal.Marks{ClockTS: floor, Applied: applied}))
}

// SnapshotInstall streams a shipped snapshot's records into a partition:
// versions land through the store's batch path in chunks, the marks
// record's watermarks and clock floor are adopted at Commit, and a
// forced WAL snapshot makes the installed state durable in one step
// (per-record WAL appends are skipped — a crash mid-install loses only
// re-pullable state, and the bootstrap runner restarts the pull).
type SnapshotInstall struct {
	p     *Partition
	batch []kvstore.BatchEntry
	marks *wal.Marks
}

// BeginInstall starts a snapshot installation.
func (p *Partition) BeginInstall() *SnapshotInstall {
	return &SnapshotInstall{p: p, batch: make([]kvstore.BatchEntry, 0, 256)}
}

// Record consumes one wal-encoded snapshot record (the stream
// CaptureSnapshot emitted).
func (in *SnapshotInstall) Record(rec []byte) error {
	if len(rec) > 0 && rec[0] == wal.KindMarks {
		m, err := wal.DecodeMarks(rec)
		if err != nil {
			return err
		}
		in.marks = &m
		return nil
	}
	kind, u, err := wal.DecodeUpdate(rec)
	if err != nil {
		return err
	}
	if kind != wal.KindRemote {
		return fmt.Errorf("partition: unexpected record kind %d in shipped snapshot", kind)
	}
	in.p.clock.Observe(u.TS)
	in.batch = append(in.batch, kvstore.BatchEntry{Key: u.Key, Ver: types.Version{
		Value: u.Value, TS: u.TS, VTS: u.VTS, Origin: u.Origin,
	}})
	if len(in.batch) == cap(in.batch) {
		in.p.store.ApplyBatch(in.batch)
		in.batch = in.batch[:0]
	}
	return nil
}

// Commit flushes the final batch, adopts the snapshot's watermarks and
// clock floor, floors the local sequence counter on wall-clock
// nanoseconds (a rebuilt process must never reuse a pre-loss UpdateID;
// the donor cannot know this partition's old counter, so the floor
// over-approximates it), and forces a WAL snapshot so the installed
// state is durable.
func (in *SnapshotInstall) Commit() error {
	p := in.p
	if len(in.batch) > 0 {
		p.store.ApplyBatch(in.batch)
		in.batch = in.batch[:0]
	}
	if in.marks == nil {
		return fmt.Errorf("partition: shipped snapshot ended without a marks record")
	}
	p.clock.Observe(in.marks.ClockTS)
	p.payloadMu.Lock()
	for origin, ts := range in.marks.Applied {
		if ts > p.appliedRemote[origin] {
			p.appliedRemote[origin] = ts
		}
	}
	p.payloadMu.Unlock()
	p.seqMu.Lock()
	if floor := uint64(time.Now().UnixNano()); floor > p.seq {
		p.seq = floor
	}
	p.seqMu.Unlock()
	return p.ForceSnapshot()
}

// AppliedRemoteWatermark reports the highest origin timestamp applied (and,
// after recovery, durably recorded) from origin k.
func (p *Partition) AppliedRemoteWatermark(k types.DCID) hlc.Timestamp {
	p.payloadMu.Lock()
	defer p.payloadMu.Unlock()
	return p.appliedRemote[k]
}
