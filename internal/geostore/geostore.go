// Package geostore wires the complete EunomiaKV deployment of §4-§6: M
// datacenters, each with N partitions, a (possibly replicated) Eunomia
// service and a receiver, all connected by a message fabric
// (internal/fabric).
//
// Data flow for one update accepted at datacenter m:
//
//	client ──► partition: HLC tag, local store        (Algorithm 2)
//	partition ──► Eunomia replicas: metadata batches   (§5, batched 1ms)
//	partition ──► sibling partitions: payload          (§5, immediate)
//	Eunomia leader ──► remote receivers: ordered ids   (site stabilization)
//	receiver ──► partition: release when deps applied  (Algorithm 5)
//
// Every arrow crosses the fabric, so the same deployment code runs over
// the in-process simulated WAN (simnet: one Store hosts all datacenters,
// as the tests and figure harness do) and over real TCP (transport: each
// process hosts a Node with a subset of roles, as cmd/eunomia-server
// does).
//
// The store implements the workload.Client factory surface the harness
// drives, plus crash and straggler injection hooks for Figures 4 and 7.
package geostore

import (
	"fmt"
	"log"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"eunomia/internal/eunomia"
	"eunomia/internal/fabric"
	"eunomia/internal/faults"
	"eunomia/internal/hlc"
	"eunomia/internal/kvstore"
	"eunomia/internal/partition"
	"eunomia/internal/receiver"
	"eunomia/internal/session"
	"eunomia/internal/simnet"
	"eunomia/internal/types"
	"eunomia/internal/vclock"
	"eunomia/internal/wal"
)

// ShipMsg is the metadata batch a Eunomia leader ships to a remote
// receiver: stable operations in timestamp order.
type ShipMsg struct {
	Origin types.DCID
	Ops    []*types.Update
}

// PayloadPullMsg asks the origin datacenter's responsible partition to
// re-ship one update's payload. A partition-process crash loses every
// buffered payload newer than its last WAL flush (the shipping sibling
// pruned them on transport acknowledgement), and the recovered release
// stream would otherwise park on the gap forever. Dest names the
// requesting datacenter so the reply routes to its partition group.
type PayloadPullMsg struct {
	Dest types.DCID
	U    *types.Update // metadata: identifies the exact version wanted
}

// PayloadSupersededMsg answers a pull whose version the origin no longer
// stores (a newer version overwrote it): the requesting applier may skip
// the update — the superseding version is ordered after it in the stream
// and carries its own payload.
type PayloadSupersededMsg struct {
	ID types.UpdateID
}

// VisibleFunc observes a remote update becoming visible at a destination
// datacenter; arrived is when its payload reached the destination.
type VisibleFunc func(dest types.DCID, u *types.Update, arrived time.Time)

// Config parameterises a deployment. Zero values select the paper's
// defaults (§7.2): 3 DCs, 8 partitions, 1 Eunomia replica, 1ms batching
// and stabilization, data/metadata separation on, vector metadata.
type Config struct {
	DCs int
	// Partitions per datacenter, at most hlc.MaxStreams: each issues
	// timestamps carrying its id. OpenNode rejects a larger count.
	Partitions int
	// Replicas is the Eunomia replication factor per datacenter
	// (1 = the non-fault-tolerant Algorithm 3 service).
	Replicas int
	// Aggregators is the size of the datacenter's §5 propagation-tree
	// fan-in set: when positive, partitions stream their metadata at two
	// of the fabric.AggregatorAddr endpoints (their own and the next,
	// modulo the set — redundant paths, so one aggregator crash never
	// stalls a stream) instead of directly at the replica set, and the
	// aggregators merge whole fan-in sets into one MultiBatchMsg per
	// flush toward Eunomia. 0 = the flat all-to-one topology. Every
	// process of the datacenter must agree on this value, like
	// Partitions and Replicas.
	Aggregators int

	// Delay is the simnet latency function; nil uses the paper's RTTs
	// (80/80/160ms) at full scale via simnet.PaperRTTs(1). TCP nodes
	// ignore it — real sockets bring their own latency.
	Delay simnet.DelayFunc

	// BatchInterval is the partition→Eunomia and payload propagation
	// period; flushes (and the watermark each reports) fire on its
	// wall-clock multiples. Default 1ms.
	BatchInterval time.Duration
	// StableInterval is Eunomia's θ: the fallback stabilization round,
	// follower announcements and leader suspicion (the leader otherwise
	// stabilizes on every arrival). Default 1ms.
	StableInterval time.Duration

	// NoSeparation disables §5 data/metadata separation, for the
	// ablation. The paper's prototype runs with separation on, and so
	// does the zero value.
	NoSeparation bool
	// ScalarMeta runs clients with scalar causal histories instead of
	// vectors (the §4 metadata ablation).
	ScalarMeta bool
	// ClockFor, optional, supplies the physical clock source for each
	// partition; nil uses the system clock everywhere. Tests inject
	// skewed clocks here to verify skew tolerance.
	ClockFor func(dc types.DCID, p types.PartitionID) hlc.PhysSource

	// OnVisible, optional, observes remote update visibility.
	OnVisible VisibleFunc
}

func (c *Config) fill() {
	if c.DCs <= 0 {
		c.DCs = 3
	}
	if c.Partitions <= 0 {
		c.Partitions = 8
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.Aggregators < 0 {
		c.Aggregators = 0
	}
	if c.BatchInterval <= 0 {
		c.BatchInterval = time.Millisecond
	}
	if c.StableInterval <= 0 {
		c.StableInterval = time.Millisecond
	}
	if c.Delay == nil {
		c.Delay = simnet.LatencyMatrix(simnet.PaperRTTs(1), 0)
	}
}

// Roles selects which components of a datacenter a Node hosts.
type Roles uint8

const (
	// RolePartitions hosts the datacenter's partition servers (and their
	// Eunomia batching clients and payload shippers).
	RolePartitions Roles = 1 << iota
	// RoleEunomia hosts the datacenter's Eunomia replica set.
	RoleEunomia
	// RoleReceiver hosts the datacenter's remote-update receiver.
	RoleReceiver
	// RoleAggregator hosts §5 propagation-tree fan-in aggregators
	// (selected by NodeConfig.AggIndexes); only meaningful when
	// Config.Aggregators is positive.
	RoleAggregator
	// RoleFrontend hosts a client front door (frontend.go): causal
	// get/put served to external clients, identified by session tokens.
	RoleFrontend
)

// RoleAll hosts a complete datacenter in one process (including its
// propagation tree, when Config.Aggregators asks for one, and a front
// door at index NodeConfig.FrontendIndex).
const RoleAll = RolePartitions | RoleEunomia | RoleReceiver | RoleAggregator | RoleFrontend

// Has reports whether r includes any of the given roles.
func (r Roles) Has(x Roles) bool { return r&x != 0 }

// NodeConfig parameterises one fabric-attached process of a deployment.
type NodeConfig struct {
	Config
	// DC is the datacenter this node belongs to.
	DC types.DCID
	// Roles selects the components hosted here; other roles of the same
	// datacenter are expected elsewhere on the fabric.
	Roles Roles
	// Fabric carries every inter-component edge. The node registers its
	// endpoints on it but does not own it: the caller closes it after
	// the node.
	Fabric fabric.Fabric
	// ReleaseWindow bounds in-flight releases on the windowed
	// receiver→partition release path. Default 256.
	ReleaseWindow int

	// AggIndexes selects which of the datacenter's Config.Aggregators
	// fan-in endpoints this node hosts (RoleAggregator); nil hosts all
	// of them, the single-process deployment. Indexes at or above
	// Config.Aggregators are legal: they name extra tree levels that
	// partitions do not stream at directly (see AggParents).
	AggIndexes []int
	// AggParents overrides the hosted aggregators' upstream endpoints —
	// a parent-aggregator pair for trees deeper than one level, or named
	// Eunomia replicas. Nil targets the datacenter's replica set.
	// Aggregator parents are redundant routes into one service; replica
	// parents are a replica set (see aggTopology).
	AggParents []fabric.Addr

	// FrontendIndex selects which of the datacenter's front-door
	// endpoints this node's frontend registers as (RoleFrontend).
	// Frontends are stateless, so a datacenter scales its front door by
	// running more processes with distinct indexes. Default 0.
	FrontendIndex int
	// FrontendWaitTimeout bounds the hosted frontend's migration
	// visibility wait (frontend.go). Default 30s.
	FrontendWaitTimeout time.Duration

	// DataDir, when set, makes every hosted role durable: partitions log
	// accepted and applied updates to per-partition snapshot+log stores,
	// the applier persists its release-stream position, and the receiver
	// persists SiteTime and its pending queues. A node restarted with
	// the same DataDir recovers its state and rejoins the release stream
	// at its durable watermark instead of wedging it. Empty = the
	// original in-memory-only behavior.
	DataDir string
	// WALSync selects the fsync policy for all of the node's stores.
	// Default wal.SyncGroupCommit: an append is on disk when it returns.
	// wal.SyncOnFlush fsyncs once per batch/ack cadence and bounds the
	// loss window by it (see DESIGN.md).
	WALSync wal.SyncPolicy
	// SnapshotThreshold is the per-store log size that triggers
	// compaction. Default wal.DefaultSnapshotThreshold (1 MiB).
	SnapshotThreshold int64

	// StoreBackend selects the partitions' version store: "mem" (the
	// default, kvstore.Mem) or "disk" (kvstore.Disk, a log-structured
	// per-shard segment store whose live dataset may exceed memory).
	// "disk" requires DataDir.
	StoreBackend string

	// BootstrapFrom lists donor datacenters to pull partition snapshots
	// from at open, in preference order: a rebuilding node installs a
	// pinned, chunked, compressed snapshot from the first reachable
	// donor (bootstrap.go) and rejoins the release stream past its
	// watermarks instead of resyncing update by update. Empty = no
	// bootstrap (fresh deployments, and restarts that recover locally).
	BootstrapFrom []types.DCID
	// BootstrapChunkTimeout bounds one chunk round trip before it is
	// retried. Default 1s.
	BootstrapChunkTimeout time.Duration
	// BootstrapChunkAttempts is how many times one chunk is requested
	// before the donor is declared dead and the next one tried.
	// Default 20.
	BootstrapChunkAttempts int

	// Faults, optional, is the fault-injection seam (internal/faults):
	// each hosted component's WAL stores consult the injector's armed
	// per-component fsync errors ("partition", "applier", "receiver")
	// before every sync. A fired fault makes the component's sync error
	// sticky — surfaced by SyncErr, the wal_sync_errors metric, and the
	// frontend /healthz — and the node stops promising durability until
	// it is restarted onto a healthy (disarmed) injector.
	Faults *faults.Injector
}

// Node hosts a subset of one datacenter's components on a fabric. A Store
// is M all-role nodes on one simnet; cmd/eunomia-server runs one Node per
// process on TCP.
type Node struct {
	cfg   Config
	id    types.DCID
	roles Roles
	fab   fabric.Fabric
	ring  kvstore.Ring

	parts      []*partition.Partition
	shippers   []*fabric.Batcher[*types.Update]
	shipQueues []*shipQueue
	cluster    *eunomia.Cluster
	recv       *receiver.Receiver
	aggs       []*fabric.Aggregator

	// The release path (release.go): the receiver's window streams
	// releases to the applier over the fabric, also when both run in this
	// process. relWin exists with the receiver, app with the partitions of
	// a multi-DC deployment.
	relWin *releaseWindow
	app    *applier

	frontend *Frontend

	// Durability (DataDir set): one store per partition, one for the
	// applier's stream position; the receiver owns its own. flushLoop
	// flushes and compacts them on the batch cadence.
	partStores    []*wal.Store
	streamStore   *wal.Store
	walMetrics    []WALComponentMetrics
	snapThreshold int64
	// Pluggable version-store backend: the disk stores the node opened
	// (empty for "mem") and the backend's name for metrics labels.
	diskStores  []*kvstore.Disk
	backendName string
	// Snapshot shipping (bootstrap.go): donor-side pins, joiner-side
	// reply routing, and ship counters.
	boot      bootState
	flushStop chan struct{}
	flushWG   sync.WaitGroup
	// flushErr is the sticky first flush/compaction failure (injected
	// fsync faults land here): flushLoop records it and exits instead of
	// tearing the process down, so the failure is observable (SyncErr,
	// metrics, /healthz) the way a full disk is in production.
	flushMu  sync.Mutex
	flushErr error
}

// NewNode builds and starts the selected roles, registering their
// endpoints on the fabric. It panics if recovery from NodeConfig.DataDir
// fails; deployments that configure durability should prefer OpenNode and
// handle the error.
func NewNode(nc NodeConfig) *Node {
	n, err := OpenNode(nc)
	if err != nil {
		panic("geostore: " + err.Error())
	}
	return n
}

// OpenNode builds and starts the selected roles, registering their
// endpoints on the fabric. With NodeConfig.DataDir set it first recovers
// every hosted role's durable state (partition stores, the applier's
// stream position, the receiver's SiteTime and pending queues) and then
// keeps it maintained on the batch cadence.
func OpenNode(nc NodeConfig) (*Node, error) {
	nc.Config.fill()
	if err := hlc.CheckStreams(nc.Partitions); err != nil {
		return nil, fmt.Errorf("geostore: Config.Partitions: %w", err)
	}
	if nc.Roles == 0 {
		nc.Roles = RoleAll
	}
	if nc.SnapshotThreshold <= 0 {
		nc.SnapshotThreshold = wal.DefaultSnapshotThreshold
	}
	switch nc.StoreBackend {
	case "", "mem":
		nc.StoreBackend = "mem"
	case "disk":
		if nc.DataDir == "" {
			return nil, fmt.Errorf("geostore: -store disk requires a data dir")
		}
	default:
		return nil, fmt.Errorf("geostore: unknown store backend %q (want mem or disk)", nc.StoreBackend)
	}
	n := &Node{
		cfg:           nc.Config,
		id:            nc.DC,
		roles:         nc.Roles,
		fab:           nc.Fabric,
		ring:          kvstore.NewRing(nc.Partitions),
		snapThreshold: nc.SnapshotThreshold,
		backendName:   nc.StoreBackend,
	}
	if nc.Roles.Has(RoleEunomia) {
		n.buildEunomia()
	}
	if nc.Roles.Has(RoleAggregator) && nc.Aggregators > 0 {
		// Before the partitions: their batching clients start streaming
		// at the aggregator endpoints the moment they exist.
		n.buildAggregators(nc)
	}
	fail := func(err error) (*Node, error) {
		if n.app != nil {
			n.app.close()
		}
		n.closeStores()
		return nil, err
	}
	if nc.Roles.Has(RolePartitions) {
		if err := n.buildPartitions(nc); err != nil {
			return fail(err)
		}
		if len(nc.BootstrapFrom) > 0 {
			// After the partitions (their endpoints route the donors'
			// replies), before the receiver and frontend: the node must
			// not serve or rejoin the release stream until its stores and
			// watermarks are at the shipped snapshot.
			if err := n.bootstrapPartitions(nc); err != nil {
				return fail(err)
			}
		}
	}
	if nc.Roles.Has(RoleReceiver) && n.cfg.DCs > 1 {
		if err := n.buildReceiver(nc); err != nil {
			return fail(err)
		}
	}
	if n.app != nil && nc.DataDir != "" {
		// Every hosted role has replayed: entries recovered above carry
		// replay-time arrival stamps, all safely below the gate set now.
		n.app.healer.arm()
	}
	if nc.Roles.Has(RoleFrontend) {
		n.frontend = NewFrontend(FrontendConfig{
			Fabric:      n.fab,
			DC:          nc.DC,
			DCs:         n.cfg.DCs,
			Partitions:  n.cfg.Partitions,
			Index:       nc.FrontendIndex,
			Scalar:      n.cfg.ScalarMeta,
			WaitTimeout: nc.FrontendWaitTimeout,
		})
	}
	if nc.DataDir != "" {
		n.flushStop = make(chan struct{})
		n.flushWG.Add(1)
		go n.flushLoop()
	}
	return n, nil
}

// flushLoop keeps the node's durable state maintained on the batch
// cadence: partition and receiver WALs flush (bounding the SyncOnFlush
// loss window to one batch), and any store whose log outgrew the
// threshold compacts.
func (n *Node) flushLoop() {
	defer n.flushWG.Done()
	ticker := time.NewTicker(n.cfg.BatchInterval)
	defer ticker.Stop()
	for {
		select {
		case <-n.flushStop:
			return
		case <-ticker.C:
		}
		for _, p := range n.parts {
			if err := p.FlushWAL(); err != nil {
				n.failFlush("partition WAL flush", err)
				return
			}
			if _, err := p.MaybeSnapshot(n.snapThreshold); err != nil {
				n.failFlush("partition snapshot", err)
				return
			}
		}
		if n.recv != nil {
			if err := n.recv.FlushWAL(); err != nil {
				n.failFlush("receiver WAL flush", err)
				return
			}
			if _, err := n.recv.MaybeSnapshot(n.snapThreshold); err != nil {
				n.failFlush("receiver snapshot", err)
				return
			}
		}
	}
}

// failFlush records the first durability failure — of the flush loop, or
// of the applier's stream store — as the node's sticky durability error;
// the failing loop stops. The node keeps serving — the failure is a disk
// problem, not a correctness problem for data already applied — but it
// no longer advances durable watermarks, and the error is surfaced
// through SyncErr (and from there the frontend /healthz and the
// wal_sync_errors metric) until the node is restarted onto a healthy
// disk.
func (n *Node) failFlush(what string, err error) {
	n.flushMu.Lock()
	if n.flushErr == nil {
		n.flushErr = fmt.Errorf("geostore: %s failed: %w", what, err)
		log.Printf("geostore dc%d: durability lost: %s failed: %v; restart the node onto a healthy disk", n.id, what, err)
	}
	n.flushMu.Unlock()
}

// SyncErr reports the node's sticky durability error, if any: a flush
// loop failure, or a sticky sync error on any partition, stream, or
// receiver WAL store (group-commit syncs fail outside the flush loop).
// A non-nil result means the node's durable watermarks have stopped
// advancing and its durability promises must not be trusted until it is
// restarted onto a healthy disk.
func (n *Node) SyncErr() error {
	n.flushMu.Lock()
	err := n.flushErr
	n.flushMu.Unlock()
	if err != nil {
		return err
	}
	for _, st := range n.partStores {
		if err := st.SyncErr(); err != nil {
			return err
		}
	}
	if n.streamStore != nil {
		if err := n.streamStore.SyncErr(); err != nil {
			return err
		}
	}
	if n.recv != nil {
		if err := n.recv.WALSyncErr(); err != nil {
			return err
		}
	}
	return nil
}

// WALComponentMetrics pairs a component label with the shared sync
// metrics of that component's WAL stores (fsync latency, group-commit
// batch sizes); cmd/eunomia-server exports them per label on
// -metrics-addr.
type WALComponentMetrics struct {
	Component string
	M         *wal.SyncMetrics
}

// WALMetrics returns the node's per-component WAL sync metrics (empty
// without a DataDir). The slice is built at open time and never mutated;
// callers may read it concurrently with operation.
func (n *Node) WALMetrics() []WALComponentMetrics { return n.walMetrics }

// walOptions assembles the store options for one component's stores,
// registering a shared SyncMetrics for it on the node.
func (n *Node) walOptions(nc NodeConfig, component string) wal.Options {
	m := wal.NewSyncMetrics()
	n.walMetrics = append(n.walMetrics, WALComponentMetrics{Component: component, M: m})
	return wal.Options{
		Policy:     nc.WALSync,
		Metrics:    m,
		InjectSync: nc.Faults.InjectSyncFunc(component),
	}
}

// closeStores closes every store the node opened (the receiver closes its
// own).
func (n *Node) closeStores() {
	for _, st := range n.partStores {
		_ = st.Close()
	}
	for _, ds := range n.diskStores {
		_ = ds.Close()
	}
	if n.streamStore != nil {
		_ = n.streamStore.Close()
	}
}

// StoreBackend reports the configured version-store backend name ("mem"
// or "disk") — the label on eunomia_store_bytes.
func (n *Node) StoreBackend() string { return n.backendName }

// StoreBytes reports the live dataset size across the node's hosted
// partitions, whichever backend holds it.
func (n *Node) StoreBytes() int64 {
	var total int64
	for _, p := range n.parts {
		total += p.Store().Bytes()
	}
	return total
}

// buildEunomia starts the replica set and serves each replica's stream
// frame ingestion at its fabric address; the acting leader ships
// stable metadata to every remote receiver over its own FIFO channel.
//
// Shipping goes through one asynchronous queue per destination
// datacenter: a networked fabric applies backpressure (Send blocks on a
// full window) when a destination is unreachable, and that must stall
// neither the replica's stabilization loop nor shipping to the healthy
// datacenters.
func (n *Node) buildEunomia() {
	m := n.id
	cfg := n.cfg
	queues := make(map[types.DCID]*shipQueue, cfg.DCs)
	for k := 0; k < cfg.DCs; k++ {
		if types.DCID(k) == m {
			continue
		}
		q := newShipQueue(n.fab, fabric.ReceiverAddr(types.DCID(k)))
		queues[types.DCID(k)] = q
		n.shipQueues = append(n.shipQueues, q)
	}
	ship := func(from types.ReplicaID, ops []*types.Update) {
		for _, q := range queues {
			q.add(fabric.EunomiaAddr(m, from), ShipMsg{Origin: m, Ops: ops})
		}
	}
	n.cluster = eunomia.NewCluster(cfg.Replicas, eunomia.Config{
		Partitions:     cfg.Partitions,
		StableInterval: cfg.StableInterval,
	}, ship)
	for r, rep := range n.cluster.Replicas() {
		fabric.ServeReplica(n.fab, fabric.EunomiaAddr(m, types.ReplicaID(r)), rep)
	}
}

// buildAggregators starts the node's share of the datacenter's §5
// propagation tree: fan-in endpoints that merge partition streams into
// MultiBatchMsg frames toward the replica set (or toward the parents
// NodeConfig.AggParents names, for deeper trees).
func (n *Node) buildAggregators(nc NodeConfig) {
	m := n.id
	idxs := nc.AggIndexes
	if idxs == nil {
		for i := 0; i < nc.Aggregators; i++ {
			idxs = append(idxs, i)
		}
	}
	parents := nc.AggParents
	if parents == nil {
		for r := 0; r < nc.Replicas; r++ {
			parents = append(parents, fabric.EunomiaAddr(m, types.ReplicaID(r)))
		}
	}
	redundant, level := aggTopology(nc.AggIndexes, nc.Aggregators, nc.AggParents)
	for _, i := range idxs {
		n.aggs = append(n.aggs, fabric.NewAggregator(fabric.AggregatorConfig{
			Fabric:           n.fab,
			Local:            fabric.AggregatorAddr(m, i),
			Parents:          parents,
			RedundantParents: redundant,
			FlushInterval:    nc.BatchInterval,
			Level:            level,
		}))
	}
}

// aggTopology derives the hosted aggregators' parent semantics and
// tree-level label (1 = fed directly by partitions) from their parents
// and indices. Aggregator parents (a deeper tree) are redundant routes
// into one service, folded max-over-paths, and a node forwarding to them
// is below them: a leaf, level 1. A node with replica parents is the
// tree's top: level 1 in a one-level tree, level 2 when it hosts only
// indices outside the partition-facing fan-in set (partitions stream at
// 0..aggregators-1 only, so such a node is fed exclusively by child
// aggregators). Nil idxs host the whole fan-in set.
func aggTopology(idxs []int, aggregators int, parents []fabric.Addr) (redundant bool, level int) {
	for _, p := range parents {
		if strings.HasPrefix(p.Name, "aggregator") {
			return true, 1
		}
	}
	if len(idxs) == 0 {
		return false, 1
	}
	for _, i := range idxs {
		if i < aggregators {
			return false, 1
		}
	}
	return false, 2
}

// aggregatorPair returns the two fan-in endpoints partition i streams at:
// its own (i modulo the set) and the next, so every partition keeps a
// surviving path through any single aggregator crash. A fan-in set of one
// yields a single path.
func aggregatorPair(m types.DCID, i, aggregators int) []fabric.Addr {
	a0 := i % aggregators
	pair := []fabric.Addr{fabric.AggregatorAddr(m, a0)}
	if aggregators > 1 {
		pair = append(pair, fabric.AggregatorAddr(m, (a0+1)%aggregators))
	}
	return pair
}

// buildPartitions starts the partition servers, their batching clients
// (replica conns over the fabric) and payload shippers, the partition
// ingress handler (sibling payload batches, replica acknowledgement
// watermarks and client requests arrive at the partition's address), and,
// when other datacenters exist, the applier that releases their updates.
func (n *Node) buildPartitions(nc NodeConfig) error {
	m := n.id
	cfg := n.cfg
	var partOpts wal.Options
	if nc.DataDir != "" {
		partOpts = n.walOptions(nc, "partition")
	}
	if cfg.DCs > 1 {
		// Before the ingress handlers that wake it; it starts once the
		// partitions below have replayed.
		n.app = newApplier(n)
	}
	for i := 0; i < cfg.Partitions; i++ {
		pid := types.PartitionID(i)
		var src hlc.PhysSource
		if cfg.ClockFor != nil {
			src = cfg.ClockFor(m, pid)
		}
		var onVisible partition.VisibleFunc
		if cfg.OnVisible != nil {
			dest := m
			cb := cfg.OnVisible
			onVisible = func(u *types.Update, arrived time.Time) {
				cb(dest, u, arrived)
			}
		}
		var pstore *wal.Store
		if nc.DataDir != "" {
			var err error
			pstore, err = wal.OpenStoreOptions(filepath.Join(nc.DataDir, fmt.Sprintf("dc%d-partition%d", m, i)), partOpts)
			if err != nil {
				return err
			}
			n.partStores = append(n.partStores, pstore)
		}
		var backend kvstore.Store
		if nc.StoreBackend == "disk" {
			ds, err := kvstore.OpenDisk(
				filepath.Join(nc.DataDir, fmt.Sprintf("dc%d-partition%d-store", m, i)),
				kvstore.DiskOptions{})
			if err != nil {
				return fmt.Errorf("opening dc%d partition %d disk store: %w", m, i, err)
			}
			n.diskStores = append(n.diskStores, ds)
			backend = ds
		}
		p := partition.New(partition.Config{
			DC:           m,
			ID:           pid,
			DCs:          cfg.DCs,
			Clock:        src,
			SeparateData: !cfg.NoSeparation,
			OnVisible:    onVisible,
			Store:        pstore,
			Backend:      backend,
		})
		if pstore != nil {
			// Replay before the partition serves (or ships) anything:
			// recovered versions must be in place before the applier
			// resumes the release stream at its durable watermark.
			if err := p.Recover(); err != nil {
				return fmt.Errorf("recovering dc%d partition %d: %w", m, i, err)
			}
		}

		local := fabric.PartitionAddr(m, pid)
		// The metadata stream's targets: the replica set directly, or —
		// in a wide datacenter running the §5 propagation tree — the
		// partition's pair of fan-in aggregators, whose transparent
		// watermarks make any single path's acknowledgement equivalent
		// to the service's (RedundantPaths).
		var remotes []fabric.Addr
		if cfg.Aggregators > 0 {
			remotes = aggregatorPair(m, i, cfg.Aggregators)
		} else {
			for r := 0; r < cfg.Replicas; r++ {
				remotes = append(remotes, fabric.EunomiaAddr(m, types.ReplicaID(r)))
			}
		}
		pconns := make([]*fabric.ReplicaConn, len(remotes))
		euConns := make([]eunomia.Conn, len(remotes))
		for r, remote := range remotes {
			rc := fabric.NewReplicaConn(n.fab, local, remote)
			pconns[r] = rc
			euConns[r] = rc
		}
		euClient := eunomia.NewClient(eunomia.ClientConfig{
			Partition:      pid,
			BatchInterval:  cfg.BatchInterval,
			RedundantPaths: cfg.Aggregators > 0,
		}, euConns, p.Clock())

		// One batcher per destination datacenter: each has its own
		// flush goroutine, so fabric backpressure from one unreachable
		// sibling never stalls payload shipping to the healthy ones
		// (same isolation the metadata edge gets from shipQueue).
		batchers := make(map[types.DCID]*fabric.Batcher[*types.Update], cfg.DCs)
		for k := 0; k < cfg.DCs; k++ {
			if types.DCID(k) == m {
				continue
			}
			b := fabric.NewBatcher[*types.Update](n.fab, local, cfg.BatchInterval)
			batchers[types.DCID(k)] = b
			n.shippers = append(n.shippers, b)
		}
		p.Attach(euClient, &payloadShipper{node: n, pid: pid, batchers: batchers})
		n.parts = append(n.parts, p)

		part := p
		n.fab.Register(local, func(msg fabric.Message) {
			switch v := msg.Payload.(type) {
			case []*types.Update:
				unparked := false
				for _, u := range v {
					unparked = part.ReceivePayload(u) || unparked
				}
				if unparked {
					n.app.kick()
				}
			case fabric.MultiAckMsg:
				for _, rc := range pconns {
					if rc.HandleMessage(msg) {
						return
					}
				}
			case ClientReadMsg:
				// Off the delivery goroutine: replies must not contend
				// with payload ingestion on this endpoint.
				from := msg.From
				go func() {
					val, vts := part.Read(v.Key)
					n.fab.Send(local, from, ClientReadAckMsg{ID: v.ID, Found: vts != nil, Value: val, VTS: vts})
				}()
			case ClientWriteMsg:
				// Off the delivery goroutine: a durable-on-return WAL
				// policy may block Update in an fsync.
				from := msg.From
				go func() {
					vts := part.Update(v.Key, v.Value, v.Dep)
					n.fab.Send(local, from, ClientWriteAckMsg{ID: v.ID, VTS: vts})
				}()
			case SnapshotRequestMsg:
				// Off the delivery goroutine: pinning a fresh snapshot
				// captures the whole partition under its durability lock
				// and must not stall payload ingestion here.
				go n.serveSnapshotRequest(local, part, v)
			case SnapshotChunkMsg:
				n.deliverBootstrapChunk(pid, v)
			case PayloadPullMsg:
				// A crashed sibling lost this update's buffered payload;
				// re-ship it if we still store that exact version, or
				// report it superseded so the stream can skip it.
				if ver, ok := part.Store().Get(v.U.Key); ok && ver.TS == v.U.TS && ver.Origin == v.U.Origin {
					full := &types.Update{
						Key: v.U.Key, Value: ver.Value, Origin: ver.Origin,
						Partition: pid, TS: ver.TS, VTS: ver.VTS,
					}
					n.fab.Send(local, fabric.PartitionAddr(v.Dest, pid), []*types.Update{full})
				} else {
					n.fab.Send(local, fabric.ApplierAddr(v.Dest), PayloadSupersededMsg{ID: v.U.ID()})
				}
			}
		})
	}
	if n.app != nil {
		// The ordered ingress the receiver's release window targets. With
		// a data dir the applier recovers its stream position (the
		// partitions above already replayed, so the position's applies
		// are really present) and rejoins instead of forcing a wedge.
		var stream *wal.Store
		if nc.DataDir != "" {
			var err error
			stream, err = wal.OpenStoreOptions(filepath.Join(nc.DataDir, fmt.Sprintf("dc%d-stream", m)), n.walOptions(nc, "applier"))
			if err != nil {
				return err
			}
			n.streamStore = stream
		}
		if err := n.app.start(stream); err != nil {
			return fmt.Errorf("recovering dc%d release stream position: %w", m, err)
		}
		n.fab.Register(fabric.ApplierAddr(m), n.app.handle)
	}
	return nil
}

// buildReceiver starts the receiver, releasing remote metadata through
// the windowed release stream (release.go) to the applier of the
// datacenter's partition group, in this process or another.
func (n *Node) buildReceiver(nc NodeConfig) error {
	m := n.id
	n.relWin = newReleaseWindow(n.fab, fabric.ReceiverAddr(m), fabric.ApplierAddr(m), nc.ReleaseWindow)
	rcfg := receiver.Config{
		DC:       m,
		DCs:      n.cfg.DCs,
		Apply:    n.relWin.release,
		Released: n.relWin.flush,
	}
	if nc.DataDir != "" {
		recv, err := receiver.RecoverOptions(rcfg, filepath.Join(nc.DataDir, fmt.Sprintf("dc%d-receiver", m)), n.walOptions(nc, "receiver"))
		if err != nil {
			n.relWin.close()
			return fmt.Errorf("recovering dc%d receiver: %w", m, err)
		}
		n.recv = recv
		// The persisted site watermark follows the applier's durable
		// acknowledgements, so recovery never claims an apply a
		// partition crash could still lose.
		n.relWin.onDurable = func(u *types.Update) {
			recv.MarkDurable(u.Origin, u.VTS.Get(int(u.Origin)))
		}
	} else {
		n.recv = receiver.New(rcfg)
	}
	recv := n.recv
	// Acknowledgements move the watermark visibility waits answer from,
	// so they wake the waits too.
	n.relWin.onAcked = recv.NotifyAdvance
	n.fab.Register(fabric.ReceiverAddr(m), func(msg fabric.Message) {
		switch v := msg.Payload.(type) {
		case ShipMsg:
			recv.Enqueue(v.Origin, v.Ops)
		case WaitMsg:
			// A frontend's migration visibility wait: answer once
			// SiteTime dominates the dependency's remote entries —
			// everything the migrating client ever observed is then
			// applied datacenter-wide. Parks on the receiver's advance
			// notification until the deadline, off the delivery
			// goroutine.
			from := msg.From
			budget := time.Duration(v.WaitNanos)
			if budget <= 0 {
				budget = defaultWaitBudget
			}
			go func() {
				deadline := time.Now().Add(budget)
				timer := time.NewTimer(time.Until(deadline))
				defer timer.Stop()
				for {
					advanced := recv.Advanced()
					// SiteTime advances on admission into the release
					// window, not on apply, so it overstates what a read
					// can see. Answer the wait (and the cached Site) from
					// the durable-ack watermark instead: only the
					// applier's acknowledgements prove the client's
					// history is applied. A restarted window starts its
					// acks empty; the receiver's persisted watermark
					// carries the pre-restart baseline.
					st := vclock.New(n.cfg.DCs)
					ok := true
					for k := 0; k < n.cfg.DCs; k++ {
						if types.DCID(k) == m {
							continue
						}
						acked := n.relWin.ackedEntry(types.DCID(k))
						if d := recv.DurableSiteEntry(types.DCID(k)); d > acked {
							acked = d
						}
						st.Set(k, acked)
						if acked < v.Dep.Get(k) {
							ok = false
						}
					}
					if ok || time.Now().After(deadline) {
						n.fab.Send(fabric.ReceiverAddr(m), from, WaitAckMsg{ID: v.ID, OK: ok, Site: st})
						return
					}
					select {
					case <-advanced:
					case <-timer.C:
					}
				}
			}()
		case ReleaseAckMsg:
			n.relWin.handleAck(v)
		}
	})
	return nil
}

// DC returns the node's datacenter.
func (n *Node) DC() types.DCID { return n.id }

// Cluster returns the hosted Eunomia replica set (nil without
// RoleEunomia).
func (n *Node) Cluster() *eunomia.Cluster { return n.cluster }

// Receiver returns the hosted receiver (nil without RoleReceiver or in
// single-DC deployments).
func (n *Node) Receiver() *receiver.Receiver { return n.recv }

// Partition returns hosted partition p (RolePartitions only).
func (n *Node) Partition(p types.PartitionID) *partition.Partition { return n.parts[p] }

// Aggregators returns the hosted propagation-tree fan-in nodes (empty
// without RoleAggregator or when Config.Aggregators is zero).
func (n *Node) Aggregators() []*fabric.Aggregator { return n.aggs }

// Frontend returns the hosted client front door (nil without
// RoleFrontend).
func (n *Node) Frontend() *Frontend { return n.frontend }

// Ring returns the key-to-partition mapping.
func (n *Node) Ring() kvstore.Ring { return n.ring }

// ReleaseInflight reports how many releases the node's windowed release
// stream is holding unacknowledged (0 without RoleReceiver).
func (n *Node) ReleaseInflight() int {
	if n.relWin == nil {
		return 0
	}
	return n.relWin.inflightLen()
}

// ReleaseResent reports how many releases the window retransmitted after
// acknowledgement stalls.
func (n *Node) ReleaseResent() int64 {
	if n.relWin == nil {
		return 0
	}
	return n.relWin.resentCount()
}

// ReleaseWedged reports whether the node's release stream was declared
// unrecoverable (the partition process restarted without persisted
// state); the datacenter needs a restart/resync.
func (n *Node) ReleaseWedged() bool {
	return n.relWin != nil && n.relWin.isWedged()
}

// ApplierPending reports releases admitted by the node's applier but not
// yet applied (0 without RolePartitions or in single-DC deployments).
func (n *Node) ApplierPending() int {
	if n.app == nil {
		return 0
	}
	return n.app.pending()
}

// ApplierDurable reports the release-stream sequence the node's applier
// has durably recorded (0 for volatile nodes or nodes without an
// applier) — the watermark a restart resumes from.
func (n *Node) ApplierDurable() uint64 {
	if n.app == nil {
		return 0
	}
	return n.app.durableSeq()
}

// TotalUpdates sums updates accepted by the hosted partitions.
func (n *Node) TotalUpdates() int64 {
	var t int64
	for _, p := range n.parts {
		t += p.Updates.Load()
	}
	return t
}

// TotalRemoteApplied sums remote updates applied by the hosted partitions.
func (n *Node) TotalRemoteApplied() int64 {
	var t int64
	for _, p := range n.parts {
		t += p.RemoteApplied.Load()
	}
	return t
}

// NewClient opens a causal session against the hosted partition group.
func (n *Node) NewClient() *Client {
	if !n.roles.Has(RolePartitions) {
		panic("geostore: NewClient on a node without RolePartitions")
	}
	mode := session.Vector
	if n.cfg.ScalarMeta {
		mode = session.Scalar
	}
	return &Client{node: n, sess: session.New(mode, n.cfg.DCs)}
}

// CloseIngress stops the components that produce traffic: partitions
// flush their final metadata batches, payload shippers drain. Call on
// every node of a deployment before CloseServices on any of them.
func (n *Node) CloseIngress() {
	for _, p := range n.parts {
		p.Close()
	}
	for _, sh := range n.shippers {
		sh.Close()
	}
}

// CloseServices stops the Eunomia replica set and the receiver, then the
// durability machinery: the flush loop, the partition and applier
// endpoints, the partition stores, and the applier's stream store (the
// receiver closes its own store).
func (n *Node) CloseServices() {
	if n.frontend != nil {
		// First: fail client round trips before their partition and
		// receiver endpoints disappear.
		n.frontend.Close()
	}
	if n.flushStop != nil {
		// Before the components whose stores it flushes go away.
		close(n.flushStop)
		n.flushWG.Wait()
		n.flushStop = nil
	}
	for _, a := range n.aggs {
		// Before the replica set stops: the final flush forwards what the
		// (already-closed) partitions last streamed.
		a.Close()
	}
	if n.cluster != nil {
		n.cluster.Stop()
	}
	for _, q := range n.shipQueues {
		// Signal only: a drain blocked in a backpressured Send is
		// released when the caller closes the fabric afterwards.
		q.close()
	}
	if n.relWin != nil {
		// Before recv.Close: the receiver loop may be blocked in a
		// release() on a full window, and Close waits for that loop.
		n.relWin.close()
	}
	if n.recv != nil {
		n.recv.Close()
	}
	if n.app != nil {
		n.app.close()
	}
	if n.roles.Has(RolePartitions) {
		// Before the stores close: a payload or release delivered after
		// closeStores would append to a closed WAL. A delivery already
		// dispatched when this runs is dropped by the partition instead.
		for i := range n.parts {
			n.fab.Unregister(fabric.PartitionAddr(n.id, types.PartitionID(i)))
		}
		n.fab.Unregister(fabric.ApplierAddr(n.id))
	}
	n.closeStores()
}

// Close shuts the node down in order. The fabric is the caller's to
// close afterwards.
func (n *Node) Close() {
	n.CloseIngress()
	n.CloseServices()
}

// shipQueue decouples the stabilization loop from one destination's
// fabric backpressure: add never blocks (the queue is unbounded, like the
// receiver's own queues — a long-dead destination costs memory, not
// datacenter liveness), and a single drain goroutine preserves FIFO
// order toward the destination.
type shipQueue struct {
	fab fabric.Fabric
	to  fabric.Addr

	mu     sync.Mutex
	cond   *sync.Cond
	q      []shipItem
	closed bool
}

type shipItem struct {
	from fabric.Addr
	msg  ShipMsg
}

func newShipQueue(fab fabric.Fabric, to fabric.Addr) *shipQueue {
	s := &shipQueue{fab: fab, to: to}
	s.cond = sync.NewCond(&s.mu)
	go s.drain()
	return s
}

func (s *shipQueue) add(from fabric.Addr, msg ShipMsg) {
	s.mu.Lock()
	if !s.closed {
		s.q = append(s.q, shipItem{from: from, msg: msg})
		s.cond.Signal()
	}
	s.mu.Unlock()
}

// close stops the drain after its current send; it deliberately does not
// wait, because that send may sit in fabric backpressure until the owner
// closes the fabric.
func (s *shipQueue) close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *shipQueue) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.q)
}

func (s *shipQueue) drain() {
	for {
		s.mu.Lock()
		for len(s.q) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.q) == 0 && s.closed {
			s.mu.Unlock()
			return
		}
		item := s.q[0]
		s.q = s.q[1:]
		if len(s.q) == 0 {
			s.q = nil
		}
		s.mu.Unlock()
		s.fab.Send(item.from, s.to, item.msg)
	}
}

// payloadShipper fans one partition's payloads out to its siblings, one
// independently flushed batcher per destination datacenter.
type payloadShipper struct {
	node     *Node
	pid      types.PartitionID
	batchers map[types.DCID]*fabric.Batcher[*types.Update]
}

// ShipPayload implements partition.PayloadShipper.
func (ps *payloadShipper) ShipPayload(u *types.Update) {
	for k, b := range ps.batchers {
		b.Add(fabric.PartitionAddr(k, ps.pid), u)
	}
}

// Store is a running in-process EunomiaKV deployment: every datacenter as
// an all-role Node on one simulated-WAN fabric.
type Store struct {
	cfg   Config
	net   *simnet.Network
	ring  kvstore.Ring
	nodes []*Node
}

// NewStore builds and starts a deployment.
func NewStore(cfg Config) *Store {
	cfg.fill()
	s := &Store{
		cfg:  cfg,
		net:  simnet.New(cfg.Delay),
		ring: kvstore.NewRing(cfg.Partitions),
	}
	for m := 0; m < cfg.DCs; m++ {
		s.nodes = append(s.nodes, NewNode(NodeConfig{
			Config: cfg,
			DC:     types.DCID(m),
			Roles:  RoleAll,
			Fabric: s.net,
		}))
	}
	return s
}

// Client is a causal session bound to one datacenter, implementing the
// workload.Client surface.
type Client struct {
	node *Node
	sess *session.Session
}

// NewClient opens a session at datacenter dcID.
func (s *Store) NewClient(dcID types.DCID) *Client {
	return s.nodes[dcID].NewClient()
}

// Read implements Algorithm 1 READ against the local datacenter.
func (c *Client) Read(key types.Key) (types.Value, error) {
	p := c.node.parts[c.node.ring.Responsible(key)]
	val, vts := p.Read(key)
	c.sess.ObserveRead(vts)
	return val, nil
}

// Update implements Algorithm 1 UPDATE against the local datacenter.
func (c *Client) Update(key types.Key, value types.Value) error {
	p := c.node.parts[c.node.ring.Responsible(key)]
	vts := p.Update(key, value, c.sess.Dep())
	c.sess.ObserveUpdate(vts)
	return nil
}

// Session exposes the client's causal summary for tests.
func (c *Client) Session() *session.Session { return c.sess }

// Partition returns partition p of datacenter m, for test inspection.
func (s *Store) Partition(m types.DCID, p types.PartitionID) *partition.Partition {
	return s.nodes[m].parts[p]
}

// Receiver returns the receiver of datacenter m (nil for single-DC runs).
func (s *Store) Receiver(m types.DCID) *receiver.Receiver { return s.nodes[m].recv }

// Frontend returns the client front door of datacenter m.
func (s *Store) Frontend(m types.DCID) *Frontend { return s.nodes[m].frontend }

// Eunomia returns the Eunomia replica set of datacenter m.
func (s *Store) Eunomia(m types.DCID) *eunomia.Cluster { return s.nodes[m].cluster }

// Node returns datacenter m's node, for role-level inspection.
func (s *Store) Node(m types.DCID) *Node { return s.nodes[m] }

// Ring returns the key-to-partition mapping shared by every datacenter.
func (s *Store) Ring() kvstore.Ring { return s.ring }

// Network exposes the fabric for fault injection in tests.
func (s *Store) Network() *simnet.Network { return s.net }

// SetPartitionInterval changes how often partition p of datacenter m
// propagates to its local Eunomia — the Figure 7 straggler injection.
func (s *Store) SetPartitionInterval(m types.DCID, p types.PartitionID, d time.Duration) {
	s.nodes[m].parts[p].EunomiaClient().SetInterval(d)
}

// CrashEunomiaReplica stops replica r of datacenter m's Eunomia service.
func (s *Store) CrashEunomiaReplica(m types.DCID, r types.ReplicaID) {
	s.nodes[m].cluster.Replica(r).Stop()
}

// Close shuts the deployment down: partitions flush their final metadata
// batches, then services and the fabric stop.
func (s *Store) Close() {
	for _, n := range s.nodes {
		n.CloseIngress()
	}
	for _, n := range s.nodes {
		n.CloseServices()
	}
	s.net.Close()
}

// WaitQuiescent blocks until every receiver queue and release stream is
// drained and every partition's payload buffer is empty, or the timeout
// elapses. Tests use
// it to assert convergence after load stops.
func (s *Store) WaitQuiescent(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if s.quiescent() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("geostore: not quiescent after %v", timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (s *Store) quiescent() bool {
	for _, n := range s.nodes {
		if n.recv != nil {
			for k := 0; k < s.cfg.DCs; k++ {
				if n.recv.QueueLen(types.DCID(k)) > 0 {
					return false
				}
			}
			if n.relWin.inflightLen() > 0 || n.app.pending() > 0 {
				return false
			}
		}
		for _, q := range n.shipQueues {
			if q.len() > 0 {
				return false
			}
		}
		for _, p := range n.parts {
			if p.EunomiaClient().Pending() > 0 || p.PendingPayloads() > 0 {
				return false
			}
		}
	}
	return true
}

// Convergent checks that every datacenter stores the same version for
// every key; it returns a descriptive error for the first divergence.
func (s *Store) Convergent() error {
	if s.cfg.DCs < 2 {
		return nil
	}
	ref := make(map[types.Key]types.Version)
	for p := 0; p < s.cfg.Partitions; p++ {
		s.nodes[0].parts[p].Store().ForEach(func(k types.Key, v types.Version) {
			ref[k] = v
		})
	}
	for m := 1; m < s.cfg.DCs; m++ {
		count := 0
		var err error
		for p := 0; p < s.cfg.Partitions; p++ {
			s.nodes[m].parts[p].Store().ForEach(func(k types.Key, v types.Version) {
				count++
				r, ok := ref[k]
				if err != nil {
					return
				}
				if !ok {
					err = fmt.Errorf("dc%d has key %q missing at dc0", m, k)
					return
				}
				if r.TS != v.TS || r.Origin != v.Origin {
					err = fmt.Errorf("key %q diverged: dc0=(ts %s, origin %d) dc%d=(ts %s, origin %d)",
						k, r.TS, r.Origin, m, v.TS, v.Origin)
				}
			})
		}
		if err != nil {
			return err
		}
		if count != len(ref) {
			return fmt.Errorf("dc%d stores %d keys, dc0 stores %d", m, count, len(ref))
		}
	}
	return nil
}

// TotalUpdates sums updates accepted across all datacenters.
func (s *Store) TotalUpdates() int64 {
	var n int64
	for _, node := range s.nodes {
		n += node.TotalUpdates()
	}
	return n
}

// VTS helper: returns the update vector type for examples without
// importing internal/vclock directly.
func (s *Store) NewVector() vclock.V { return vclock.New(s.cfg.DCs) }
