package sequencer

import (
	"fmt"
	"sync"
	"time"

	"eunomia/internal/fabric"
	"eunomia/internal/hlc"
	"eunomia/internal/kvstore"
	"eunomia/internal/metrics"
	"eunomia/internal/receiver"
	"eunomia/internal/session"
	"eunomia/internal/simnet"
	"eunomia/internal/types"
	"eunomia/internal/vclock"
)

// StoreMode selects how the geo store consults the sequencer.
type StoreMode int

const (
	// SSeq is the faithful sequencer-based design (§2): every update
	// operation synchronously obtains its number before returning to the
	// client.
	SSeq StoreMode = iota
	// ASeq is the paper's deliberately bogus asynchronous variant: the
	// sequencer is contacted in parallel with applying the update. It
	// performs the same total work but removes the round trip from the
	// client's critical path — and does not actually capture causality.
	// It exists to quantify what sequencers cost purely by being
	// synchronous (Figure 1).
	ASeq
)

func (m StoreMode) String() string {
	if m == ASeq {
		return "A-Seq"
	}
	return "S-Seq"
}

// StoreConfig parameterises a sequencer-based geo store.
type StoreConfig struct {
	Mode       StoreMode
	DCs        int
	Partitions int
	Delay      simnet.DelayFunc
	// SequencerDelay emulates the intra-datacenter round trip to the
	// sequencer; zero leaves only the in-process channel round trip.
	SequencerDelay time.Duration
	// ChainReplicas > 1 replicates each datacenter's sequencer with
	// chain replication (Figure 3's FT sequencer).
	ChainReplicas int
	// ShipInterval batches inter-DC replication. Default 1ms.
	ShipInterval time.Duration
	ClockFor     func(dc types.DCID, p types.PartitionID) hlc.PhysSource
	// OnVisible observes remote update visibility at a destination.
	OnVisible func(dest types.DCID, u *types.Update, arrived time.Time)
}

func (c *StoreConfig) fill() {
	if c.DCs <= 0 {
		c.DCs = 3
	}
	if c.Partitions <= 0 {
		c.Partitions = 8
	}
	if c.ShipInterval <= 0 {
		c.ShipInterval = time.Millisecond
	}
	if c.Delay == nil {
		c.Delay = simnet.LatencyMatrix(simnet.PaperRTTs(1), 0)
	}
}

// Roles selects which components of a sequencer-based datacenter a Node
// hosts. The natural split mirrors the paper's architecture: the
// sequencer is a standalone service every update consults, so it is the
// role worth running in its own process.
type Roles uint8

const (
	// RoleSequencer hosts the datacenter's sequencer service and serves
	// it at its fabric address.
	RoleSequencer Roles = 1 << iota
	// RolePartitions hosts the partition servers, the propagator, and the
	// datacenter's remote-update receiver (colocated: the baseline's
	// receiver applies straight into the partition group).
	RolePartitions
)

// RoleAll hosts a complete sequencer-based datacenter in one process.
const RoleAll = RoleSequencer | RolePartitions

// Has reports whether r includes any of the given roles.
func (r Roles) Has(x Roles) bool { return r&x != 0 }

// NodeConfig parameterises one fabric-attached process of a deployment.
type NodeConfig struct {
	StoreConfig
	// DC is the datacenter this node belongs to.
	DC types.DCID
	// Roles selects the components hosted here; other roles of the same
	// datacenter are expected elsewhere on the fabric.
	Roles Roles
	// Fabric carries every inter-component edge: replication to remote
	// receivers, and — when the sequencer role runs elsewhere — the
	// synchronous number-assignment round trips themselves. The node
	// registers endpoints but does not own the fabric.
	Fabric fabric.Fabric
	// AckTimeout bounds remote sequencer round trips. Default 10s.
	AckTimeout time.Duration
}

// Node hosts a subset of one sequencer-based datacenter on a fabric. A
// Store is M all-role nodes on one simnet; cmd/eunomia-server runs one
// Node per process on TCP with -mode sequencer.
type Node struct {
	cfg   StoreConfig
	id    types.DCID
	roles Roles
	fab   fabric.Fabric
	ring  kvstore.Ring

	// svc is the hosted sequencer service (RoleSequencer); seq is what
	// the partitions consult — svc when colocated, a Remote otherwise.
	svc   Service
	seq   Service
	prop  *propagator
	parts []*spart
	recv  *receiver.Receiver

	// A-Seq's detached sequencer round trips run on a bounded worker
	// pool instead of one goroutine per write: against a slow or
	// unreachable remote sequencer, per-write goroutines would pile up
	// without bound for the outage duration.
	async     chan func()
	asyncStop chan struct{}
	asyncWG   sync.WaitGroup
}

const (
	asyncAssignWorkers = 64
	asyncAssignQueue   = 4096
)

// propagatorAddr names the node's shipping endpoint. Distinct from the
// sequencer's address so that, in split deployments, networked fabrics do
// not learn the partition process as a reply route to the sequencer.
func propagatorAddr(dc types.DCID) fabric.Addr {
	return fabric.Addr{DC: dc, Name: "propagator"}
}

// ClientAddr names the endpoint remote-sequencer acknowledgements return
// to — hosted by the partition-group process. Exported so deployment
// tooling can route it alongside the partition group's other endpoints.
func ClientAddr(dc types.DCID) fabric.Addr {
	return fabric.Addr{DC: dc, Name: "seqclient"}
}

// NewNode builds and starts the selected roles, registering their
// endpoints on the fabric.
func NewNode(nc NodeConfig) *Node {
	nc.StoreConfig.fill()
	if nc.Roles == 0 {
		nc.Roles = RoleAll
	}
	n := &Node{
		cfg:   nc.StoreConfig,
		id:    nc.DC,
		roles: nc.Roles,
		fab:   nc.Fabric,
		ring:  kvstore.NewRing(nc.Partitions),
	}
	cfg := n.cfg
	m := n.id

	if nc.Roles.Has(RoleSequencer) {
		if cfg.ChainReplicas > 1 {
			ch := NewChain(cfg.ChainReplicas)
			ch.Delay = cfg.SequencerDelay
			n.svc = ch
		} else {
			single := NewSingle()
			single.Delay = cfg.SequencerDelay
			n.svc = single
		}
		ServeFabric(n.fab, fabric.SequencerAddr(m, 0), n.svc)
	}

	if nc.Roles.Has(RolePartitions) {
		n.prop = newPropagator(n)
		if nc.Roles.Has(RoleSequencer) {
			n.seq = n.svc
		} else {
			// A timed-out round trip may still have allocated a number
			// server-side; the propagator skips it so the dense shipping
			// order is not wedged by one slow reply.
			n.seq = NewRemote(n.fab, ClientAddr(m), fabric.SequencerAddr(m, 0), nc.AckTimeout, n.prop.skip)
		}
		// The bounded pool guards only the remote-sequencer case, where
		// one detached round trip can block for the full AckTimeout
		// against a down process. Colocated A-Seq keeps the per-write
		// goroutine of the original measurement: its round trip is
		// bounded by the local service, and the figures' A-Seq curves
		// are defined by that unconstrained-concurrency interaction.
		if cfg.Mode == ASeq && !nc.Roles.Has(RoleSequencer) {
			n.async = make(chan func(), asyncAssignQueue)
			n.asyncStop = make(chan struct{})
			n.asyncWG.Add(asyncAssignWorkers)
			for w := 0; w < asyncAssignWorkers; w++ {
				go func() {
					defer n.asyncWG.Done()
					for {
						select {
						case f := <-n.async:
							f()
						case <-n.asyncStop:
							return
						}
					}
				}()
			}
		}
		for i := 0; i < cfg.Partitions; i++ {
			var src hlc.PhysSource
			if cfg.ClockFor != nil {
				src = cfg.ClockFor(m, types.PartitionID(i))
			}
			n.parts = append(n.parts, &spart{
				node:  n,
				id:    types.PartitionID(i),
				clock: hlc.NewClock(src),
				kv:    kvstore.New(),
			})
		}
		if cfg.DCs > 1 {
			n.recv = receiver.New(receiver.Config{
				DC:  m,
				DCs: cfg.DCs,
				Apply: func(u *types.Update, metaArrived time.Time) bool {
					n.parts[n.ring.Responsible(u.Key)].applyRemote(u, metaArrived)
					return true
				},
			})
			recv := n.recv
			n.fab.Register(fabric.ReceiverAddr(m), func(msg fabric.Message) {
				ops, ok := msg.Payload.([]*types.Update)
				if !ok {
					return
				}
				recv.Enqueue(msg.From.DC, ops)
			})
		}
	}
	return n
}

// DC returns the node's datacenter.
func (n *Node) DC() types.DCID { return n.id }

// Sequencer returns the hosted sequencer service (nil without
// RoleSequencer).
func (n *Node) Sequencer() Service { return n.svc }

// Receiver returns the hosted receiver (nil without RolePartitions or in
// single-DC deployments).
func (n *Node) Receiver() *receiver.Receiver { return n.recv }

// Applied sums remote updates made visible by the hosted partitions.
func (n *Node) Applied() int64 {
	var total int64
	for _, p := range n.parts {
		total += p.Applied.Load()
	}
	return total
}

// NewClient opens a causal session against the hosted partition group.
func (n *Node) NewClient() *Client {
	if !n.roles.Has(RolePartitions) {
		panic("sequencer: NewClient on a node without RolePartitions")
	}
	return &Client{node: n, sess: session.New(session.Vector, n.cfg.DCs)}
}

// Close shuts the node down: the propagator flushes its final batches,
// then the receiver and the hosted sequencer service stop. The fabric is
// the caller's to close afterwards.
func (n *Node) Close() {
	if rem, ok := n.seq.(*Remote); ok {
		rem.Stop()
	}
	if n.svc != nil {
		n.svc.Stop()
	}
	if n.async != nil {
		// Stopping the services above released any worker blocked in a
		// Next call; queued-but-unstarted assigns are dropped (A-Seq
		// drops the causal link by design anyway).
		close(n.asyncStop)
		n.asyncWG.Wait()
	}
	if n.prop != nil {
		n.prop.ship.Close()
	}
	if n.recv != nil {
		n.recv.Close()
	}
}

// Store is a running sequencer-based causally consistent geo store, in the
// style of SwiftCloud and ChainReaction: a per-datacenter sequencer totally
// orders local updates, updates carry a vector with one sequence number
// per datacenter, and remote datacenters apply them in sequence order with
// trivially checkable dependencies. It composes one all-role Node per
// datacenter on a simulated-WAN fabric; multi-process deployments run the
// same Nodes over TCP.
type Store struct {
	cfg   StoreConfig
	net   *simnet.Network
	nodes []*Node
}

// NewStore builds and starts a deployment.
func NewStore(cfg StoreConfig) *Store {
	cfg.fill()
	s := &Store{cfg: cfg, net: simnet.New(cfg.Delay)}
	for m := 0; m < cfg.DCs; m++ {
		s.nodes = append(s.nodes, NewNode(NodeConfig{
			StoreConfig: cfg,
			DC:          types.DCID(m),
			Roles:       RoleAll,
			Fabric:      s.net,
		}))
	}
	return s
}

// propagator emits one datacenter's sequenced updates to every remote
// datacenter in dense sequence order. With S-Seq, updates can reach it
// slightly out of order (partitions race between obtaining the number and
// submitting), so it holds a reorder buffer keyed by sequence number.
type propagator struct {
	node *Node

	mu    sync.Mutex
	buf   map[uint64]*types.Update
	skips map[uint64]bool // numbers allocated but never tagged onto an update
	next  uint64

	ship *fabric.Batcher[*types.Update]
}

func newPropagator(n *Node) *propagator {
	return &propagator{
		node:  n,
		buf:   make(map[uint64]*types.Update),
		skips: make(map[uint64]bool),
		next:  1,
		ship:  fabric.NewBatcher[*types.Update](n.fab, propagatorAddr(n.id), n.cfg.ShipInterval),
	}
}

// submit hands over an update already tagged with its sequence number
// (u.TS holds the number, u.VTS the dependency vector of numbers).
func (p *propagator) submit(u *types.Update) {
	p.mu.Lock()
	p.buf[uint64(u.TS)] = u
	p.advanceLocked()
	p.mu.Unlock()
}

// skip marks a number as permanently unoccupied: its sequencer round
// trip timed out after the service allocated it, so no update will ever
// carry it. Without this the dense-order shipping loop would wait on it
// forever. Remote receivers tolerate the gap — they deduplicate and
// order by origin timestamp, not density.
func (p *propagator) skip(n uint64) {
	p.mu.Lock()
	if n >= p.next {
		p.skips[n] = true
		p.advanceLocked()
	}
	p.mu.Unlock()
}

func (p *propagator) advanceLocked() {
	for {
		if p.skips[p.next] {
			delete(p.skips, p.next)
			p.next++
			continue
		}
		next, ok := p.buf[p.next]
		if !ok {
			return
		}
		delete(p.buf, p.next)
		p.next++
		for k := 0; k < p.node.cfg.DCs; k++ {
			if types.DCID(k) == p.node.id {
				continue
			}
			p.ship.Add(fabric.ReceiverAddr(types.DCID(k)), next)
		}
	}
}

// spart is one partition server of a sequencer-based datacenter.
type spart struct {
	node  *Node
	id    types.PartitionID
	clock *hlc.Clock
	kv    *kvstore.Mem

	// Applied counts remote updates made visible.
	Applied metrics.Counter
}

func (p *spart) read(key types.Key) (types.Value, vclock.V) {
	v, ok := p.kv.Get(key)
	if !ok {
		return nil, nil
	}
	return v.Value, v.VTS
}

// update implements the sequencer-based write path. dep is the client's
// vector of per-datacenter sequence numbers. Under S-Seq a failed
// sequencer round trip (stopped service, remote timeout) fails the write:
// nothing was stored or propagated, and the caller must know.
func (p *spart) update(key types.Key, value types.Value, dep vclock.V) (vclock.V, error) {
	n := p.node
	m := int(n.id)
	u := &types.Update{
		Key:       key,
		Value:     value.Clone(),
		Origin:    n.id,
		Partition: p.id,
		CreatedAt: time.Now().UnixNano(),
	}

	// The stored version's LWW order uses the hybrid clock, which is
	// comparable across datacenters; sequence numbers are not.
	hts := p.clock.Tick(0)
	u.HTS = hts

	assign := func() (vclock.V, error) {
		seqno, err := n.seq.Next()
		if err != nil {
			return nil, err
		}
		vts := vclock.New(n.cfg.DCs)
		copy(vts, dep)
		vts.Set(m, hlc.Timestamp(seqno))
		u.TS = hlc.Timestamp(seqno)
		u.Seq = seqno
		u.VTS = vts.Clone()
		n.prop.submit(u)
		return vts, nil
	}

	if n.cfg.Mode == ASeq {
		// A-Seq: same total work, but the sequencer round trip happens
		// in parallel with applying the update; the client does not wait
		// (and causality is knowingly not captured). Against a remote
		// sequencer the detached round trip runs on the node's bounded
		// pool — when the queue is full (sequencer outage) the write
		// briefly blocks here rather than growing an unbounded goroutine
		// pile. Colocated, it keeps the original per-write goroutine.
		p.kv.Apply(key, types.Version{Value: u.Value, TS: hts, VTS: dep.Clone(), Origin: n.id})
		if n.async != nil {
			select {
			case n.async <- func() { _, _ = assign() }:
			case <-n.asyncStop:
			}
		} else {
			go func() { _, _ = assign() }()
		}
		return dep, nil
	}

	vts, err := assign()
	if err != nil {
		return nil, err
	}
	p.kv.Apply(key, types.Version{Value: u.Value, TS: hts, VTS: vts, Origin: n.id})
	return vts, nil
}

func (p *spart) applyRemote(u *types.Update, arrived time.Time) {
	p.clock.Observe(u.HTS)
	p.kv.Apply(u.Key, types.Version{Value: u.Value, TS: u.HTS, VTS: u.VTS, Origin: u.Origin})
	p.Applied.Inc()
	if p.node.cfg.OnVisible != nil {
		p.node.cfg.OnVisible(p.node.id, u, arrived)
	}
}

// Client is a causal session of per-datacenter sequence numbers.
type Client struct {
	node *Node
	sess *session.Session
}

// NewClient opens a session at datacenter dcID.
func (s *Store) NewClient(dcID types.DCID) *Client {
	return s.nodes[dcID].NewClient()
}

// Read performs a causal read against the local datacenter.
func (c *Client) Read(key types.Key) (types.Value, error) {
	p := c.node.parts[c.node.ring.Responsible(key)]
	val, vts := p.read(key)
	c.sess.ObserveRead(vts)
	return val, nil
}

// Update performs a write against the local datacenter, synchronously
// sequenced under S-Seq (a failed sequencer round trip fails the write),
// asynchronously under A-Seq.
func (c *Client) Update(key types.Key, value types.Value) error {
	p := c.node.parts[c.node.ring.Responsible(key)]
	vts, err := p.update(key, value, c.sess.Dep())
	if err != nil {
		return fmt.Errorf("sequencer: update %q dropped: %w", key, err)
	}
	c.sess.ObserveUpdate(vts)
	return nil
}

// Partition exposes a partition's kvstore for convergence checks.
func (s *Store) Partition(m types.DCID, p types.PartitionID) *kvstore.Mem {
	return s.nodes[m].parts[p].kv
}

// Node returns datacenter m's node, for role-level inspection.
func (s *Store) Node(m types.DCID) *Node { return s.nodes[m] }

// Network exposes the fabric.
func (s *Store) Network() *simnet.Network { return s.net }

// Close shuts the deployment down.
func (s *Store) Close() {
	for _, n := range s.nodes {
		n.Close()
	}
	s.net.Close()
}
