package eunomia

import (
	"fmt"
	"time"

	internal "eunomia/internal/eunomia"
	"eunomia/internal/hlc"
	"eunomia/internal/types"
)

// StableOp is one operation emitted by an Orderer once stable: no
// operation with a smaller timestamp will ever be emitted after it.
type StableOp struct {
	// Partition is the stream the operation arrived on.
	Partition int
	// Timestamp is the hybrid logical timestamp assigned at Submit.
	Timestamp Timestamp
	// Data is the opaque payload passed to Submit.
	Data []byte
}

// OrdererConfig parameterises a standalone Eunomia ordering service.
type OrdererConfig struct {
	// Partitions is the number of input streams. Every stream must
	// submit or stay attached (heartbeats are automatic) for stability
	// to progress.
	Partitions int
	// Replicas is the fault-tolerance factor (default 1).
	Replicas int
	// StabilizationInterval is θ (default 1 ms).
	StabilizationInterval time.Duration
	// BatchInterval is the per-stream propagation period (default 1 ms).
	BatchInterval time.Duration
	// OnStable receives stable operations in timestamp order. Required.
	OnStable func(ops []StableOp)
}

// Orderer is the standalone Eunomia service: it ingests timestamped
// operations from P concurrent partition streams and emits them totally
// ordered, consistently with causality, without ever synchronizing in the
// submitter's critical path. It is the building block the paper proposes
// as a drop-in replacement for datacenter sequencers.
//
// Usage:
//
//	ord, _ := eunomia.NewOrderer(eunomia.OrdererConfig{
//	    Partitions: 4,
//	    OnStable:   func(ops []eunomia.StableOp) { ... },
//	})
//	h := ord.Partition(0)
//	ts := h.Submit(dep, []byte("op"))   // dep: largest Timestamp observed
//	...
//	ord.Close()
type Orderer struct {
	cfg     OrdererConfig
	cluster *internal.Cluster
	handles []*PartitionHandle
}

// NewOrderer builds and starts an ordering service. Partitions may not
// exceed MaxPartitions.
func NewOrderer(cfg OrdererConfig) (*Orderer, error) {
	if cfg.Partitions <= 0 {
		return nil, fmt.Errorf("eunomia: OrdererConfig.Partitions must be positive, got %d", cfg.Partitions)
	}
	if err := hlc.CheckStreams(cfg.Partitions); err != nil {
		return nil, fmt.Errorf("eunomia: OrdererConfig.Partitions: %w", err)
	}
	if cfg.OnStable == nil {
		return nil, fmt.Errorf("eunomia: OrdererConfig.OnStable is required")
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	onStable := cfg.OnStable
	ship := func(_ types.ReplicaID, ops []*types.Update) {
		out := make([]StableOp, len(ops))
		for i, u := range ops {
			out[i] = StableOp{Partition: int(u.Partition), Timestamp: u.TS, Data: u.Value}
		}
		onStable(out)
	}
	o := &Orderer{cfg: cfg}
	o.cluster = internal.NewCluster(cfg.Replicas, internal.Config{
		Partitions:     cfg.Partitions,
		StableInterval: cfg.StabilizationInterval,
	}, ship)
	o.handles = make([]*PartitionHandle, cfg.Partitions)
	for i := range o.handles {
		clock := hlc.NewClock(nil)
		o.handles[i] = &PartitionHandle{
			clock: clock,
			client: internal.NewClient(internal.ClientConfig{
				Partition:     types.PartitionID(i),
				BatchInterval: cfg.BatchInterval,
			}, internal.ClusterConns(o.cluster), clock),
		}
	}
	return o, nil
}

// Partition returns the submission handle for stream i.
func (o *Orderer) Partition(i int) *PartitionHandle { return o.handles[i] }

// CrashReplica stops replica r, exercising the §3.3 failover path.
func (o *Orderer) CrashReplica(r int) { o.cluster.Replica(types.ReplicaID(r)).Stop() }

// Close flushes every stream, waits for the last submitted timestamp to
// become stable — so every submitted operation has been emitted through
// OnStable — and stops the service. The drain is deterministic: closing
// the clients flushes their buffers, a final mark at the global
// maximum timestamp advances every partition watermark past every
// submission (safe, because no handle will ever issue again), and Close
// then waits for the acting leader's stable time to cover it.
func (o *Orderer) Close() {
	var maxTS Timestamp
	for _, h := range o.handles {
		h.client.Close()
		if ts := h.clock.Last(); ts > maxTS {
			maxTS = ts
		}
	}
	if maxTS > 0 {
		for _, r := range o.cluster.Replicas() {
			for p := 0; p < o.cfg.Partitions; p++ {
				// Base 0: the closed clients' final flushes reached
				// every live replica synchronously.
				if _, err := r.NewBatch(types.PartitionBatch{Partition: types.PartitionID(p), Mark: maxTS}); err != nil {
					break // crashed replica; the survivors drain
				}
			}
		}
		// The drain needs at least one stabilization round after the
		// final mark; scale the bound with θ so large intervals
		// still drain instead of hitting an absolute cutoff first.
		wait := 10 * o.stabilization()
		if wait < 5*time.Second {
			wait = 5 * time.Second
		}
		deadline := time.Now().Add(wait)
		poll := o.stabilization() / 4
		if poll <= 0 {
			poll = 250 * time.Microsecond
		}
		for time.Now().Before(deadline) {
			l := o.cluster.Leader()
			if l == nil {
				break // every replica crashed; nothing will drain
			}
			if st := l.Stats(); st.StableTime >= maxTS && st.Pending == 0 {
				break
			}
			time.Sleep(poll)
		}
	}
	// Stop waits for each replica's current stabilization round, so a
	// ship in progress completes before Close returns.
	o.cluster.Stop()
}

func (o *Orderer) stabilization() time.Duration {
	if o.cfg.StabilizationInterval > 0 {
		return o.cfg.StabilizationInterval
	}
	return time.Millisecond
}

// PartitionHandle is one input stream of an Orderer. Submissions on one
// handle are serialized by the stream's client, which timestamps and
// enqueues each under one lock (matching the paper's assumption that
// updates within a partition are serialized by the native update
// protocol). A timestamp is unique to its stream, so (Timestamp,
// Partition) identifies an operation with no per-handle sequence number.
type PartitionHandle struct {
	clock  *hlc.Clock
	client *internal.Client
}

// Submit tags data with a hybrid timestamp strictly greater than dep and
// than every timestamp previously issued by this handle, enqueues it for
// ordering, and returns the timestamp. It never blocks on the ordering
// service (only on backpressure if the service is saturated).
//
// To capture causality across handles, pass as dep the largest Timestamp
// the submitting actor has observed (the paper's client clock).
func (h *PartitionHandle) Submit(dep Timestamp, data []byte) Timestamp {
	return h.client.IssueValue(dep, data)
}

// Timestamp returns a timestamp at or above every one this handle has
// issued, so it is safe to pass as Submit's dep. It is the stream's clock,
// which each flush also advances toward wall time, so it may exceed the
// last submission's timestamp.
func (h *PartitionHandle) Timestamp() Timestamp { return h.clock.Last() }
