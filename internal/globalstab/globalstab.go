// Package globalstab implements the two sequencer-free, global-
// stabilization baselines the paper evaluates against (§7):
//
//   - GentleRain (Du et al., SoCC'14): causal metadata over-compressed
//     into a single scalar; a remote update with timestamp ts becomes
//     visible when the Global Stable Time — the minimum, across every
//     local partition, of the oldest knowledge that partition holds about
//     every datacenter — has passed ts. The scalar makes the visibility
//     lower bound the travel time to the *farthest* datacenter, regardless
//     of the update's origin.
//
//   - Cure (Akkoorath et al., ICDCS'16): the same stabilization machinery
//     with a vector per datacenter (the Global Stable Vector), avoiding
//     cross-datacenter false dependencies at the cost of heavier metadata
//     (one vector allocated and compared per operation).
//
// Both rely on sibling partitions exchanging periodic heartbeats (10ms in
// the paper) and on a periodic local stable-time computation (5ms), whose
// cost is exactly the throughput-versus-visibility tension Figure 1
// sweeps.
//
// Each datacenter is a fabric-attached Node: replication batches and
// sibling heartbeats cross a fabric.Fabric, so the same deployment runs
// in-process on the simulated WAN (Store) and as one OS process per
// datacenter over TCP (cmd/eunomia-server -mode globalstab|cure).
package globalstab

import (
	"sync"
	"time"

	"eunomia/internal/fabric"
	"eunomia/internal/hlc"
	"eunomia/internal/kvstore"
	"eunomia/internal/metrics"
	"eunomia/internal/session"
	"eunomia/internal/simnet"
	"eunomia/internal/types"
	"eunomia/internal/vclock"
)

// Mode selects the baseline.
type Mode int

const (
	// GentleRain compresses causal metadata to one scalar.
	GentleRain Mode = iota
	// Cure tracks one entry per datacenter.
	Cure
)

func (m Mode) String() string {
	if m == Cure {
		return "Cure"
	}
	return "GentleRain"
}

// VisibleFunc observes a remote update becoming visible at dest; arrived
// is when the update reached the destination partition (the paper's
// GentleRain/Cure measurement starts there).
type VisibleFunc func(dest types.DCID, u *types.Update, arrived time.Time)

// Config parameterises a deployment.
type Config struct {
	Mode       Mode
	DCs        int
	Partitions int
	Delay      simnet.DelayFunc

	// HeartbeatInterval is the sibling heartbeat period δ (paper: 10ms).
	HeartbeatInterval time.Duration
	// StableInterval is the local stable time computation period
	// (paper: 5ms).
	StableInterval time.Duration
	// ShipInterval batches replication to siblings. Default 1ms.
	ShipInterval time.Duration

	ClockFor  func(dc types.DCID, p types.PartitionID) hlc.PhysSource
	OnVisible VisibleFunc
}

func (c *Config) fill() {
	if c.DCs <= 0 {
		c.DCs = 3
	}
	if c.Partitions <= 0 {
		c.Partitions = 8
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 10 * time.Millisecond
	}
	if c.StableInterval <= 0 {
		c.StableInterval = 5 * time.Millisecond
	}
	if c.ShipInterval <= 0 {
		c.ShipInterval = time.Millisecond
	}
	if c.Delay == nil {
		c.Delay = simnet.LatencyMatrix(simnet.PaperRTTs(1), 0)
	}
}

// HeartbeatMsg is the periodic sibling announcement: "I will never issue a
// timestamp at or below ts again".
type HeartbeatMsg struct {
	Origin types.DCID
	Part   types.PartitionID
	TS     hlc.Timestamp
}

// NodeConfig parameterises one fabric-attached process of a deployment:
// a complete datacenter (partitions plus its stabilizer — GentleRain and
// Cure have no standalone per-datacenter service to split out).
type NodeConfig struct {
	Config
	// DC is the datacenter this node hosts.
	DC types.DCID
	// Fabric carries sibling replication and heartbeats. The node
	// registers its partition endpoints but does not own the fabric.
	Fabric fabric.Fabric
}

// Node hosts one GentleRain/Cure datacenter on a fabric.
type Node struct {
	cfg   Config
	id    types.DCID
	fab   fabric.Fabric
	ring  kvstore.Ring
	parts []*gpart
	stab  *stabilizer
}

// NewNode builds and starts a datacenter, registering its partition
// endpoints on the fabric.
func NewNode(nc NodeConfig) *Node {
	nc.Config.fill()
	n := &Node{
		cfg:  nc.Config,
		id:   nc.DC,
		fab:  nc.Fabric,
		ring: kvstore.NewRing(nc.Partitions),
	}
	for i := 0; i < n.cfg.Partitions; i++ {
		n.parts = append(n.parts, newGPart(n, types.PartitionID(i)))
	}
	n.stab = newStabilizer(n)
	return n
}

// DC returns the node's datacenter.
func (n *Node) DC() types.DCID { return n.id }

// Applied sums remote updates made visible by the hosted partitions.
func (n *Node) Applied() int64 {
	var total int64
	for _, p := range n.parts {
		total += p.Applied.Load()
	}
	return total
}

// NewClient opens a causal session against the hosted datacenter.
// GentleRain clients carry a scalar history, Cure clients a vector — the
// metadata difference under evaluation.
func (n *Node) NewClient() *Client {
	mode := session.Vector
	if n.cfg.Mode == GentleRain {
		mode = session.Scalar
	}
	return &Client{node: n, sess: session.New(mode, n.cfg.DCs)}
}

// Close shuts the node down: the stabilizer stops, then the shippers
// flush. The fabric is the caller's to close afterwards.
func (n *Node) Close() {
	n.stab.close()
	for _, p := range n.parts {
		p.shipper.Close()
	}
}

// Store is a running GentleRain or Cure deployment: every datacenter as a
// Node on one simulated-WAN fabric.
type Store struct {
	cfg   Config
	net   *simnet.Network
	nodes []*Node
}

// NewStore builds and starts a deployment.
func NewStore(cfg Config) *Store {
	cfg.fill()
	s := &Store{cfg: cfg, net: simnet.New(cfg.Delay)}
	for m := 0; m < cfg.DCs; m++ {
		s.nodes = append(s.nodes, NewNode(NodeConfig{
			Config: cfg,
			DC:     types.DCID(m),
			Fabric: s.net,
		}))
	}
	return s
}

// gpart is one GentleRain/Cure partition server.
type gpart struct {
	node *Node
	id   types.PartitionID

	clock *hlc.Clock
	kv    *kvstore.Mem

	// mu also makes ticking the clock and enqueueing the update for
	// shipping one step, so the shipper carries this partition's updates
	// in timestamp order — siblings drop any update at or below what
	// they already know from it (vv).
	mu       sync.Mutex
	vv       vclock.V  // vv[d]: latest timestamp known from sibling at d; vv[dc] = own watermark
	queues   [][]gPend // pending remote updates per origin, in timestamp order
	gst      hlc.Timestamp
	gsv      vclock.V
	seq      uint64
	lastShip time.Time // when the last local update was tagged

	shipper *fabric.Batcher[*types.Update]

	// Applied counts remote updates made visible.
	Applied metrics.Counter
}

type gPend struct {
	u       *types.Update
	arrived time.Time
}

func newGPart(n *Node, pid types.PartitionID) *gpart {
	var src hlc.PhysSource
	if n.cfg.ClockFor != nil {
		src = n.cfg.ClockFor(n.id, pid)
	}
	p := &gpart{
		node:   n,
		id:     pid,
		clock:  hlc.NewClock(src),
		kv:     kvstore.New(),
		vv:     vclock.New(n.cfg.DCs),
		queues: make([][]gPend, n.cfg.DCs),
		gsv:    vclock.New(n.cfg.DCs),
	}
	p.shipper = fabric.NewBatcher[*types.Update](n.fab, fabric.PartitionAddr(n.id, pid), n.cfg.ShipInterval)
	n.fab.Register(fabric.PartitionAddr(n.id, pid), p.handle)
	return p
}

// handle ingests sibling replication batches and heartbeats.
func (p *gpart) handle(msg fabric.Message) {
	switch payload := msg.Payload.(type) {
	case []*types.Update:
		now := time.Now()
		p.mu.Lock()
		for _, u := range payload {
			k := int(u.Origin)
			if u.TS > p.vv[k] {
				p.vv[k] = u.TS
				p.queues[k] = append(p.queues[k], gPend{u: u, arrived: now})
			}
		}
		p.mu.Unlock()
	case HeartbeatMsg:
		p.mu.Lock()
		if payload.TS > p.vv[payload.Origin] {
			p.vv[payload.Origin] = payload.TS
		}
		p.mu.Unlock()
	}
}

// update implements the write path: tag, store, replicate.
func (p *gpart) update(key types.Key, value types.Value, dep vclock.V) vclock.V {
	n := p.node
	var depTS hlc.Timestamp
	if n.cfg.Mode == Cure {
		depTS = dep.Get(int(n.id))
	} else {
		depTS = dep.Max()
	}
	vts := vclock.New(n.cfg.DCs)
	copy(vts, dep)

	p.mu.Lock()
	ts := p.clock.Tick(depTS)
	vts.Set(int(n.id), ts)
	p.seq++
	if ts > p.vv[n.id] {
		p.vv[n.id] = ts
	}
	p.lastShip = time.Now()
	u := &types.Update{
		Key:       key,
		Value:     value.Clone(),
		Origin:    n.id,
		Partition: p.id,
		Seq:       p.seq,
		TS:        ts,
		VTS:       vts.Clone(),
		CreatedAt: p.lastShip.UnixNano(),
	}
	for k := 0; k < n.cfg.DCs; k++ {
		if types.DCID(k) == n.id {
			continue
		}
		p.shipper.Add(fabric.PartitionAddr(types.DCID(k), p.id), u)
	}
	p.mu.Unlock()

	p.kv.Apply(key, types.Version{Value: u.Value, TS: ts, VTS: u.VTS, Origin: n.id})
	return vts
}

func (p *gpart) read(key types.Key) (types.Value, vclock.V) {
	v, ok := p.kv.Get(key)
	if !ok {
		return nil, nil
	}
	return v.Value, v.VTS
}

// heartbeat announces the partition's clock to its siblings once it has
// tagged no update for δ (Algorithm 2 lines 10-12). Every update tagged
// below the heartbeat is already enqueued (mu), and flushing the shipper
// first sends them all ahead of it on the same FIFO links, so a sibling
// never learns the heartbeat before an update it covers.
func (p *gpart) heartbeat() {
	n := p.node
	p.mu.Lock()
	if time.Since(p.lastShip) < n.cfg.HeartbeatInterval {
		p.mu.Unlock()
		return
	}
	hb := p.clock.Advance()
	if hb > p.vv[n.id] {
		p.vv[n.id] = hb
	}
	p.mu.Unlock()
	p.shipper.Flush()
	for k := 0; k < n.cfg.DCs; k++ {
		if types.DCID(k) == n.id {
			continue
		}
		n.fab.Send(fabric.PartitionAddr(n.id, p.id), fabric.PartitionAddr(types.DCID(k), p.id),
			HeartbeatMsg{Origin: n.id, Part: p.id, TS: hb})
	}
}

// contribution returns the partition's input to the datacenter-wide
// stabilization: its whole version vector.
func (p *gpart) contribution() vclock.V {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.vv.Clone()
}

// install publishes the freshly computed stable cut and applies every
// pending remote update it covers, in timestamp order per origin.
func (p *gpart) install(gst hlc.Timestamp, gsv vclock.V) {
	type visible struct {
		u       *types.Update
		arrived time.Time
	}
	var release []visible
	n := p.node

	p.mu.Lock()
	if gst > p.gst {
		p.gst = gst
	}
	p.gsv.Merge(gsv)
	for k := 0; k < n.cfg.DCs; k++ {
		if types.DCID(k) == n.id {
			continue
		}
		q := p.queues[k]
		for len(q) > 0 {
			head := q[0]
			if !p.visibleLocked(head.u, k) {
				break
			}
			release = append(release, visible{head.u, head.arrived})
			q = q[1:]
		}
		if len(q) == 0 {
			q = nil
		}
		p.queues[k] = q
	}
	p.mu.Unlock()

	for _, r := range release {
		p.clock.Observe(r.u.TS)
		p.kv.Apply(r.u.Key, types.Version{Value: r.u.Value, TS: r.u.TS, VTS: r.u.VTS, Origin: r.u.Origin})
		p.Applied.Inc()
		if n.cfg.OnVisible != nil {
			n.cfg.OnVisible(n.id, r.u, r.arrived)
		}
	}
}

// visibleLocked is the visibility predicate: GentleRain compares the
// update's scalar timestamp against the GST; Cure compares the update's
// vector against the GSV entrywise over remote entries.
func (p *gpart) visibleLocked(u *types.Update, k int) bool {
	n := p.node
	if n.cfg.Mode == GentleRain {
		return u.TS <= p.gst
	}
	for d := 0; d < n.cfg.DCs; d++ {
		if types.DCID(d) == n.id {
			continue
		}
		if u.VTS.Get(d) > p.gsv[d] {
			return false
		}
	}
	return true
}

// stabilizer runs the periodic local stable-time computation for one
// datacenter: gather every partition's version vector, aggregate the
// minimum, and push the result back (partitions then release whatever the
// new cut covers). It also drives the sibling heartbeats.
type stabilizer struct {
	node *Node

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// Rounds counts stabilization executions (throughput-overhead probe).
	Rounds metrics.Counter
}

func newStabilizer(n *Node) *stabilizer {
	st := &stabilizer{node: n, stop: make(chan struct{})}
	st.wg.Add(2)
	go st.stableLoop()
	go st.heartbeatLoop()
	return st
}

func (st *stabilizer) stableLoop() {
	defer st.wg.Done()
	ticker := time.NewTicker(st.node.cfg.StableInterval)
	defer ticker.Stop()
	for {
		select {
		case <-st.stop:
			return
		case <-ticker.C:
		}
		st.Rounds.Inc()
		vecs := make([]vclock.V, len(st.node.parts))
		for i, p := range st.node.parts {
			vecs[i] = p.contribution()
		}
		gsv := vclock.MinOf(vecs...)
		gst := gsv.Min()
		for _, p := range st.node.parts {
			p.install(gst, gsv)
		}
	}
}

func (st *stabilizer) heartbeatLoop() {
	defer st.wg.Done()
	ticker := time.NewTicker(st.node.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-st.stop:
			return
		case <-ticker.C:
		}
		for _, p := range st.node.parts {
			p.heartbeat()
		}
	}
}

func (st *stabilizer) close() {
	st.stopOnce.Do(func() { close(st.stop) })
	st.wg.Wait()
}

// Client is a causal session bound to one datacenter.
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

// Update performs a causal write against the local datacenter.
func (c *Client) Update(key types.Key, value types.Value) error {
	p := c.node.parts[c.node.ring.Responsible(key)]
	vts := p.update(key, value, c.sess.Dep())
	c.sess.ObserveUpdate(vts)
	return nil
}

// GST returns partition p of datacenter m's current global stable time.
func (s *Store) GST(m types.DCID, p types.PartitionID) hlc.Timestamp {
	gp := s.nodes[m].parts[p]
	gp.mu.Lock()
	defer gp.mu.Unlock()
	return gp.gst
}

// GSV returns a copy of partition p of datacenter m's global stable vector.
func (s *Store) GSV(m types.DCID, p types.PartitionID) vclock.V {
	gp := s.nodes[m].parts[p]
	gp.mu.Lock()
	defer gp.mu.Unlock()
	return gp.gsv.Clone()
}

// PendingRemote returns how many remote updates partition p of datacenter
// m is still buffering.
func (s *Store) PendingRemote(m types.DCID, p types.PartitionID) int {
	gp := s.nodes[m].parts[p]
	gp.mu.Lock()
	defer gp.mu.Unlock()
	n := 0
	for _, q := range gp.queues {
		n += len(q)
	}
	return n
}

// Partition returns the kvstore of partition p at datacenter m for
// inspection.
func (s *Store) Partition(m types.DCID, p types.PartitionID) *kvstore.Mem {
	return s.nodes[m].parts[p].kv
}

// Node returns datacenter m's node, for role-level inspection.
func (s *Store) Node(m types.DCID) *Node { return s.nodes[m] }

// Network exposes the fabric for fault injection.
func (s *Store) Network() *simnet.Network { return s.net }

// Close shuts the deployment down.
func (s *Store) Close() {
	for _, n := range s.nodes {
		n.Close()
	}
	s.net.Close()
}
