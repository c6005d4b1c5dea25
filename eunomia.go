// Package eunomia is a from-scratch Go implementation of "Unobtrusive
// Deferred Update Stabilization for Efficient Geo-Replication"
// (Gunawardhana, Bravo & Rodrigues, USENIX ATC 2017).
//
// The paper's contribution is Eunomia, a per-datacenter service that
// totally orders all local updates consistently with causality — in the
// background, off the client's critical path — so that geo-replication can
// enjoy the trivial dependency checking of sequencer-based designs without
// paying their synchronous round trip, and without the expensive global
// stabilization procedures of GentleRain or Cure.
//
// Two entry points are exposed:
//
//   - Cluster: a complete causally consistent geo-replicated key-value
//     store (the paper's EunomiaKV) running M simulated datacenters in one
//     process, with configurable WAN latencies, Eunomia fault tolerance,
//     and causal client sessions. See NewCluster.
//
//   - Orderer: the standalone Eunomia ordering service, for embedding the
//     paper's site stabilization into other systems: feed it timestamped
//     operations from any number of partition streams and receive them
//     back totally ordered, in causal order. See NewOrderer.
//
// The internal packages additionally implement every baseline the paper
// evaluates against (synchronous and chain-replicated sequencers,
// GentleRain, Cure, eventual consistency) and a benchmark harness that
// regenerates every figure of the evaluation; see DESIGN.md
// "Evaluation", cmd/eunomia-bench and perfbench/README.md.
package eunomia

import (
	"errors"
	"fmt"
	"time"

	"eunomia/internal/geostore"
	"eunomia/internal/hlc"
	"eunomia/internal/simnet"
	"eunomia/internal/types"
)

// Timestamp is a hybrid logical timestamp: 48 bits of physical
// microseconds and 16 bits of logical counter packed into a uint64, whose
// natural order is the hybrid-clock order.
type Timestamp = hlc.Timestamp

// MaxPartitions bounds the partitions per datacenter (Config.Partitions)
// and the streams of an Orderer (OrdererConfig.Partitions): a
// timestamp's low bits carry its stream's id, so that no two streams
// ever issue the same timestamp.
const MaxPartitions = hlc.MaxStreams

// Config parameterises a Cluster. The zero value reproduces the paper's
// deployment: 3 datacenters × 8 partitions, one Eunomia replica each,
// 1 ms batching/stabilization, Virginia-Oregon-Ireland WAN latencies,
// vector metadata and data/metadata separation.
type Config struct {
	// Datacenters is M, the number of geo-locations (default 3).
	Datacenters int
	// Partitions is N, the number of logical partitions per datacenter
	// (default 8).
	Partitions int
	// OrderingReplicas replicates each datacenter's Eunomia service for
	// fault tolerance (default 1, the non-replicated Algorithm 3
	// service; the paper evaluates up to 3).
	OrderingReplicas int

	// RTT maps datacenter pairs {i,j} (i<j) to emulated round-trip
	// times. Nil uses the paper's 80/80/160 ms setup, scaled by
	// RTTScale.
	RTT map[[2]int]time.Duration
	// RTTScale scales the default RTT matrix; 0 means 1.0 (full paper
	// latencies). Ignored when RTT is set.
	RTTScale float64

	// BatchInterval is the partition→Eunomia propagation period, which
	// is also the heartbeat period (default 1 ms).
	BatchInterval time.Duration
	// StabilizationInterval is Eunomia's θ (default 1 ms). The paper's
	// receiver period ρ has no setting: releases run on arrivals.
	StabilizationInterval time.Duration

	// ScalarMetadata compresses client causal histories to one scalar
	// instead of a vector with an entry per datacenter — the §4 ablation
	// trading visibility latency for metadata size.
	ScalarMetadata bool
	// DisableDataSeparation routes full update payloads through Eunomia
	// instead of shipping them partition-to-partition (§5 ablation).
	DisableDataSeparation bool

	// OnRemoteVisible, optional, is invoked each time a remote update
	// becomes visible at a datacenter, with the latency between payload
	// arrival and visibility — the paper's remote update visibility
	// metric (network travel factored out).
	OnRemoteVisible func(dest int, originDC int, latency time.Duration)
}

func (c Config) delay() simnet.DelayFunc {
	if c.RTT != nil {
		m := make(map[[2]types.DCID]time.Duration, len(c.RTT))
		for k, v := range c.RTT {
			a, b := types.DCID(k[0]), types.DCID(k[1])
			if a > b {
				a, b = b, a
			}
			m[[2]types.DCID{a, b}] = v
		}
		return simnet.LatencyMatrix(m, 0)
	}
	scale := c.RTTScale
	if scale == 0 {
		scale = 1
	}
	return simnet.LatencyMatrix(simnet.PaperRTTs(scale), 0)
}

// Cluster is a running EunomiaKV deployment: a causally consistent
// geo-replicated key-value store whose update stabilization is performed
// by per-datacenter Eunomia services.
type Cluster struct {
	cfg Config
	st  *geostore.Store
}

// NewCluster builds and starts a cluster.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Datacenters < 0 || cfg.Partitions < 0 || cfg.OrderingReplicas < 0 {
		return nil, errors.New("eunomia: negative sizes in Config")
	}
	if err := hlc.CheckStreams(cfg.Partitions); err != nil {
		return nil, fmt.Errorf("eunomia: Config.Partitions: %w", err)
	}
	gcfg := geostore.Config{
		DCs:            cfg.Datacenters,
		Partitions:     cfg.Partitions,
		Replicas:       cfg.OrderingReplicas,
		Delay:          cfg.delay(),
		BatchInterval:  cfg.BatchInterval,
		StableInterval: cfg.StabilizationInterval,
		NoSeparation:   cfg.DisableDataSeparation,
		ScalarMeta:     cfg.ScalarMetadata,
	}
	if cfg.OnRemoteVisible != nil {
		cb := cfg.OnRemoteVisible
		gcfg.OnVisible = func(dest types.DCID, u *types.Update, arrived time.Time) {
			cb(int(dest), int(u.Origin), time.Since(arrived))
		}
	}
	return &Cluster{cfg: cfg, st: geostore.NewStore(gcfg)}, nil
}

// Client opens a causal session homed at datacenter dc. Sessions are
// cheap; open one per logical user or actor so that causal dependencies
// are tracked at the right granularity.
func (c *Cluster) Client(dc int) (*Client, error) {
	if dc < 0 || dc >= c.datacenters() {
		return nil, fmt.Errorf("eunomia: datacenter %d out of range [0,%d)", dc, c.datacenters())
	}
	return &Client{inner: c.st.NewClient(types.DCID(dc))}, nil
}

func (c *Cluster) datacenters() int {
	if c.cfg.Datacenters <= 0 {
		return 3
	}
	return c.cfg.Datacenters
}

// CrashOrderingReplica stops Eunomia replica r at datacenter dc,
// simulating a process failure; surviving replicas take over per §3.3.
func (c *Cluster) CrashOrderingReplica(dc, r int) {
	c.st.CrashEunomiaReplica(types.DCID(dc), types.ReplicaID(r))
}

// SetPartitionStraggler makes partition p of datacenter dc communicate
// with its local Eunomia service only every interval — the Figure 7
// straggler injection. Restore with the cluster's BatchInterval.
func (c *Cluster) SetPartitionStraggler(dc, p int, interval time.Duration) {
	c.st.SetPartitionInterval(types.DCID(dc), types.PartitionID(p), interval)
}

// WaitQuiescent blocks until all in-flight replication has drained, or
// the timeout elapses.
func (c *Cluster) WaitQuiescent(timeout time.Duration) error {
	return c.st.WaitQuiescent(timeout)
}

// Convergent verifies that every datacenter stores identical versions,
// returning a description of the first divergence found.
func (c *Cluster) Convergent() error { return c.st.Convergent() }

// Close shuts the cluster down.
func (c *Cluster) Close() { c.st.Close() }

// Internal exposes the underlying deployment to the benchmark harness in
// this module. It is not part of the supported API.
func (c *Cluster) Internal() *geostore.Store { return c.st }

// Client is a causal session against one datacenter of a Cluster. A
// session observes its own writes at its home datacenter and never
// observes states that violate causality at any datacenter.
type Client struct {
	inner *geostore.Client
}

// Read returns the value of key visible at the session's datacenter (nil
// if the key has never been written) and folds the version's causal
// metadata into the session.
func (cl *Client) Read(key string) ([]byte, error) {
	v, err := cl.inner.Read(types.Key(key))
	return v, err
}

// Update writes value under key at the session's datacenter. The write is
// immediately visible locally and propagates to every other datacenter in
// an order consistent with causality.
func (cl *Client) Update(key string, value []byte) error {
	return cl.inner.Update(types.Key(key), value)
}
