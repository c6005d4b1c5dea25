package harness

// WANBench is the emulated-WAN counterpart of the simnet experiments: the
// five systems run as one real process per datacenter on TCP fabric
// endpoints (the cmd/eunomia-server deployment shape), every
// cross-datacenter frame crosses a socket shaped by a wan.Shaper —
// latency, jitter, loss-as-retransmission, and bandwidth serialization —
// and every datacenter reads a skewed, drifting clock. The quantity under
// test is bytes-on-wire per operation across compression schemes, next to
// the remote-visibility latency each system pays under the same links:
// the metric geo-replication is actually judged by.
//
// WANTreeBytes isolates the MultiBatchMsg-heavy aggregator-tree hop
// (partitions → aggregators on one endpoint, the Eunomia replica on
// another) and measures the compression ratio on exactly that traffic —
// the acceptance workload for the codec-level frame compression.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"eunomia/internal/compress"
	"eunomia/internal/eunomia"
	"eunomia/internal/eventual"
	"eunomia/internal/fabric"
	"eunomia/internal/geostore"
	"eunomia/internal/globalstab"
	"eunomia/internal/hlc"
	"eunomia/internal/sequencer"
	"eunomia/internal/transport"
	"eunomia/internal/types"
	"eunomia/internal/wan"
	"eunomia/internal/workload"
)

// DefaultWANTopology is the asymmetric 3-datacenter shape the matrix
// defaults to: a fat short link, a thin long one, and a wildcard for the
// remaining pair — roughly a Virginia/Oregon/Ireland triangle with
// realistic jitter, loss and bandwidth caps.
const DefaultWANTopology = "dc0-dc1:40ms±5ms,0.1%,50Mbps;dc1-dc2:160ms±20ms,0.2%,20Mbps;*:80ms±10ms,0.1%,50Mbps"

// WANBenchOptions parameterises the scenario matrix.
type WANBenchOptions struct {
	// Duration is the measured window per cell (default 400ms).
	Duration time.Duration
	// Warmup precedes each measured window (default 150ms).
	Warmup time.Duration
	// DCs, Partitions, WorkersPerDC shape each deployment
	// (defaults 3, 4, 4).
	DCs          int
	Partitions   int
	WorkersPerDC int
	// Topology is the wan.ParseTopology link-spec string
	// (default DefaultWANTopology).
	Topology string
	// Seed feeds both the shaper and the workload (default 42).
	Seed int64
	// ClockSkew spreads the per-datacenter clock offsets: datacenter d
	// starts (d - DCs/2) * ClockSkew away from real time (default 2ms).
	ClockSkew time.Duration
	// DriftPPM drifts each datacenter's clock by ±DriftPPM alternating
	// by datacenter index (default 20).
	DriftPPM float64
	// Systems and Schemes select the matrix axes (defaults: all five
	// systems × off/snappy/zstd).
	Systems []SystemKind
	Schemes []compress.Scheme
	// Mix and Keys shape the workload (defaults 90:10 over the standard
	// uniform key space; a zero Mix means the default, so use a negative
	// ReadPct for a pure-update load).
	Mix  workload.Mix
	Keys workload.KeyDist
	// ThinkTime paces each closed-loop client between operations
	// (default 100µs, negative for eager clients). Unpaced in-process
	// clients demand hundreds of megabits of replication, which against
	// megabit-scale shaped links measures only the shaper's queue: the
	// bandwidth serialization backlog grows for the whole run and no
	// remote update becomes visible inside the window. Offered load has
	// to sit below the emulated capacity for visibility latency to mean
	// anything, exactly as on a real WAN.
	ThinkTime time.Duration
}

func (o *WANBenchOptions) fill() {
	if o.Duration <= 0 {
		o.Duration = 400 * time.Millisecond
	}
	if o.Warmup <= 0 {
		o.Warmup = 150 * time.Millisecond
	}
	if o.DCs <= 0 {
		o.DCs = 3
	}
	if o.Partitions <= 0 {
		o.Partitions = 4
	}
	if o.WorkersPerDC <= 0 {
		o.WorkersPerDC = 4
	}
	if o.Topology == "" {
		o.Topology = DefaultWANTopology
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.ClockSkew == 0 {
		o.ClockSkew = 2 * time.Millisecond
	}
	if o.DriftPPM == 0 {
		o.DriftPPM = 20
	}
	if len(o.Systems) == 0 {
		o.Systems = []SystemKind{EunomiaKV, SSeq, GentleRain, Cure, Eventual}
	}
	if len(o.Schemes) == 0 {
		o.Schemes = []compress.Scheme{compress.Off, compress.Snappy, compress.Zstd}
	}
	if o.Mix == (workload.Mix{}) {
		o.Mix = workload.Mix{ReadPct: 90}
	}
	if o.Keys == nil {
		o.Keys = workload.Uniform{N: workload.DefaultKeys}
	}
	if o.ThinkTime == 0 {
		o.ThinkTime = 100 * time.Microsecond
	} else if o.ThinkTime < 0 {
		o.ThinkTime = 0
	}
}

// WANBenchCell is one (system, scheme) measurement.
type WANBenchCell struct {
	System SystemKind
	Scheme compress.Scheme
	// Ops and Throughput cover the measured window.
	Ops        int64
	Throughput float64
	// RawBytes and WireBytes are pre- and post-compression transmit
	// totals summed over every endpoint during the measured window;
	// BytesPerOp is WireBytes normalized by operations and Ratio is
	// RawBytes/WireBytes (1 when nothing crossed a socket).
	RawBytes   int64
	WireBytes  int64
	BytesPerOp float64
	Ratio      float64
	// Remote-visibility latency percentiles merged over every
	// (origin, destination) pair, with VisSamples updates observed.
	VisP50, VisP90, VisP99 time.Duration
	VisSamples             int64
	// VisUnstable counts remote updates a destination made visible
	// before their origin's Eunomia had stabilized them (EunomiaKV only;
	// a correct store keeps it 0).
	VisUnstable int64
}

// WANBenchResult reports the full matrix under one topology.
type WANBenchResult struct {
	Topology string
	Cells    []WANBenchCell
}

// WANBench runs the matrix: every requested system × compression scheme,
// each as DCs TCP endpoints behind one seeded shaper.
func WANBench(o WANBenchOptions) (WANBenchResult, error) {
	o.fill()
	res := WANBenchResult{Topology: o.Topology}
	for _, sys := range o.Systems {
		for _, scheme := range o.Schemes {
			cell, err := wanBenchCell(o, sys, scheme)
			if err != nil {
				return res, err
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// wanDeployment is a per-datacenter-process deployment on loopback TCP.
type wanDeployment struct {
	fabs    []*transport.TCP
	vis     *VisMatrix
	factory workload.ClientFactory
	close   func()

	// stableAt, when set, reads a datacenter's Eunomia stable time;
	// unstable counts visible updates above it at their origin.
	stableAt func(types.DCID) hlc.Timestamp
	unstable atomic.Int64
}

// snapTxBytes sums transmit counters over every endpoint.
func (d *wanDeployment) snapTxBytes() (raw, wire int64) {
	for _, f := range d.fabs {
		cs := f.CompressStats()
		raw += cs.TxRaw
		wire += cs.TxWire
	}
	return raw, wire
}

// buildWANDeployment boots one system as o.DCs all-role TCP processes
// with a full datacenter-route mesh, shaped inbound links, and skewed
// per-datacenter clocks.
func buildWANDeployment(o WANBenchOptions, kind SystemKind, scheme compress.Scheme) (*wanDeployment, error) {
	topo, err := wan.ParseTopology(o.Topology)
	if err != nil {
		return nil, err
	}
	shaper := wan.NewShaper(topo, o.Seed)

	d := &wanDeployment{vis: NewVisMatrix(o.DCs)}
	fabs := make([]*transport.TCP, o.DCs)
	for i := range fabs {
		f, err := transport.Listen(transport.Config{
			Listen:       "127.0.0.1:0",
			Compress:     scheme,
			WANShaper:    shaper,
			HoldDelivery: true,
		})
		if err != nil {
			for _, g := range fabs[:i] {
				g.Close()
			}
			return nil, err
		}
		fabs[i] = f
	}
	d.fabs = fabs
	for i, f := range fabs {
		for j, g := range fabs {
			if i != j {
				f.AddDCRoute(types.DCID(j), g.Addr().String())
			}
		}
	}

	record := func(dest types.DCID, u *types.Update, arrived time.Time) {
		d.vis.Record(u.Origin, dest, time.Since(arrived))
		if d.stableAt != nil && d.stableAt(u.Origin) < u.TS {
			d.unstable.Add(1)
		}
	}
	// Skewed, drifting physical clocks per datacenter: the HLC absorbs
	// the skew in its logical component, so only visibility shifts.
	clockFor := func(dc types.DCID, p types.PartitionID) hlc.PhysSource {
		offset := time.Duration(int(dc)-o.DCs/2) * o.ClockSkew
		drift := o.DriftPPM
		if dc%2 == 1 {
			drift = -drift
		}
		return wan.NewSkewed(nil, offset, drift)
	}

	closeFabrics := func() {
		for _, f := range fabs {
			f.Close()
		}
	}
	switch kind {
	case EunomiaKV:
		nodes := make([]*geostore.Node, o.DCs)
		for i := range nodes {
			nodes[i] = geostore.NewNode(geostore.NodeConfig{
				Config: geostore.Config{
					DCs:        o.DCs,
					Partitions: o.Partitions,
					ClockFor:   clockFor,
					OnVisible:  record,
				},
				DC:     types.DCID(i),
				Roles:  geostore.RoleAll,
				Fabric: fabs[i],
			})
		}
		d.factory = func(w int) workload.Client { return nodes[w%o.DCs].NewClient() }
		// A remote update is visible only after its origin stabilized
		// it, so the origin's stable time (highest over its replicas)
		// already covers it when the destination applies it.
		d.stableAt = func(dc types.DCID) hlc.Timestamp {
			var st hlc.Timestamp
			for _, r := range nodes[dc].Cluster().Replicas() {
				st = max(st, r.Stats().StableTime)
			}
			return st
		}
		d.close = func() {
			for _, n := range nodes {
				n.CloseIngress()
			}
			for _, n := range nodes {
				n.CloseServices()
			}
			closeFabrics()
		}
	case SSeq, ASeq:
		mode := sequencer.SSeq
		if kind == ASeq {
			mode = sequencer.ASeq
		}
		nodes := make([]*sequencer.Node, o.DCs)
		for i := range nodes {
			nodes[i] = sequencer.NewNode(sequencer.NodeConfig{
				StoreConfig: sequencer.StoreConfig{
					Mode:       mode,
					DCs:        o.DCs,
					Partitions: o.Partitions,
					ClockFor:   clockFor,
					OnVisible:  record,
				},
				DC:     types.DCID(i),
				Roles:  sequencer.RoleAll,
				Fabric: fabs[i],
			})
		}
		d.factory = func(w int) workload.Client { return nodes[w%o.DCs].NewClient() }
		d.close = func() {
			for _, n := range nodes {
				n.Close()
			}
			closeFabrics()
		}
	case GentleRain, Cure:
		mode := globalstab.GentleRain
		if kind == Cure {
			mode = globalstab.Cure
		}
		nodes := make([]*globalstab.Node, o.DCs)
		for i := range nodes {
			nodes[i] = globalstab.NewNode(globalstab.NodeConfig{
				Config: globalstab.Config{
					Mode:       mode,
					DCs:        o.DCs,
					Partitions: o.Partitions,
					ClockFor:   clockFor,
					OnVisible:  record,
				},
				DC:     types.DCID(i),
				Fabric: fabs[i],
			})
		}
		d.factory = func(w int) workload.Client { return nodes[w%o.DCs].NewClient() }
		d.close = func() {
			for _, n := range nodes {
				n.Close()
			}
			closeFabrics()
		}
	case Eventual:
		nodes := make([]*eventual.Node, o.DCs)
		for i := range nodes {
			nodes[i] = eventual.NewNode(eventual.NodeConfig{
				Config: eventual.Config{
					DCs:        o.DCs,
					Partitions: o.Partitions,
					ClockFor:   clockFor,
					OnVisible:  record,
				},
				DC:     types.DCID(i),
				Fabric: fabs[i],
			})
		}
		d.factory = func(w int) workload.Client { return nodes[w%o.DCs].NewClient() }
		d.close = func() {
			for _, n := range nodes {
				n.Close()
			}
			closeFabrics()
		}
	default:
		closeFabrics()
		return nil, fmt.Errorf("harness: WANBench does not deploy %s", kind)
	}
	for _, f := range fabs {
		f.Ready()
	}
	return d, nil
}

// wanBenchCell measures one (system, scheme) deployment.
func wanBenchCell(o WANBenchOptions, kind SystemKind, scheme compress.Scheme) (WANBenchCell, error) {
	d, err := buildWANDeployment(o, kind, scheme)
	if err != nil {
		return WANBenchCell{}, err
	}
	defer d.close()

	// Snapshot the byte counters at the warmup boundary the driver also
	// uses, so bytes and ops cover the same window (alignment is within
	// scheduler noise, fine for a throughput-scale measurement).
	type snap struct{ raw, wire int64 }
	var before snap
	var beforeOnce sync.Once
	go func() {
		time.Sleep(o.Warmup)
		beforeOnce.Do(func() { before.raw, before.wire = d.snapTxBytes() })
	}()
	res := runDriver(o, d)
	beforeOnce.Do(func() {}) // lost race: counters read below as zero-delta
	rawAfter, wireAfter := d.snapTxBytes()

	cell := WANBenchCell{
		System:     kind,
		Scheme:     scheme,
		Ops:        res.Ops,
		Throughput: res.Throughput(),
		RawBytes:   rawAfter - before.raw,
		WireBytes:  wireAfter - before.wire,
		Ratio:      1,
	}
	if cell.Ops > 0 {
		cell.BytesPerOp = float64(cell.WireBytes) / float64(cell.Ops)
	}
	if cell.WireBytes > 0 {
		cell.Ratio = float64(cell.RawBytes) / float64(cell.WireBytes)
	}
	all := d.vis.All()
	cell.VisSamples = all.Count()
	cell.VisUnstable = d.unstable.Load()
	cell.VisP50 = time.Duration(all.Percentile(50))
	cell.VisP90 = time.Duration(all.Percentile(90))
	cell.VisP99 = time.Duration(all.Percentile(99))
	return cell, nil
}

func runDriver(o WANBenchOptions, d *wanDeployment) workload.Result {
	return workload.Run(context.Background(), workload.Config{
		Workers:   o.WorkersPerDC * o.DCs,
		Duration:  o.Duration,
		Warmup:    o.Warmup,
		Mix:       o.Mix,
		Keys:      o.Keys,
		Seed:      o.Seed,
		ThinkTime: o.ThinkTime,
	}, d.factory)
}

// WANTreeOptions parameterises the aggregator-tree bytes leg.
type WANTreeOptions struct {
	ServiceOptions
	// Partitions is the datacenter width (default 16).
	Partitions int
	// FanIn is the aggregator fan-in (default 4).
	FanIn int
	// Schemes lists the compression schemes to compare (default
	// off/snappy/zstd; off must come first for ReductionVsOff).
	Schemes []compress.Scheme
}

func (o *WANTreeOptions) fill() {
	o.ServiceOptions.fill()
	if o.Partitions <= 0 {
		o.Partitions = 16
	}
	if o.FanIn <= 0 {
		o.FanIn = 4
	}
	if len(o.Schemes) == 0 {
		o.Schemes = []compress.Scheme{compress.Off, compress.Snappy, compress.Zstd}
	}
}

// WANTreePoint is one scheme's measurement of the aggregator→replica hop.
type WANTreePoint struct {
	Scheme compress.Scheme
	// Ops is ordered (stabilized) operations in the measured window.
	Ops int64
	// RawBytes/WireBytes are the aggregator endpoint's transmit totals —
	// MultiBatchMsg traffic, pre and post compression.
	RawBytes  int64
	WireBytes int64
	// BytesPerOp is WireBytes per ordered operation; Ratio is
	// RawBytes/WireBytes.
	BytesPerOp float64
	Ratio      float64
	// ReductionVsOff is the uncompressed run's WireBytes-per-op over
	// this one's (1 for the off run itself).
	ReductionVsOff float64
}

// WANTreeResult reports every requested scheme.
type WANTreeResult struct {
	Points []WANTreePoint
}

// WANTreeBytes measures bytes-on-wire on the MultiBatchMsg-heavy
// aggregator-tree hop per compression scheme: partitions and one level of
// aggregators live on one TCP endpoint, the Eunomia replica on another,
// so exactly the aggregated metadata stream crosses the socket.
func WANTreeBytes(o WANTreeOptions) (WANTreeResult, error) {
	o.fill()
	var res WANTreeResult
	var offPerOp float64
	for _, scheme := range o.Schemes {
		pt, err := wanTreeLeg(o, scheme)
		if err != nil {
			return res, err
		}
		if scheme == compress.Off {
			offPerOp = pt.BytesPerOp
		}
		if offPerOp > 0 && pt.BytesPerOp > 0 {
			pt.ReductionVsOff = offPerOp / pt.BytesPerOp
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

func wanTreeLeg(o WANTreeOptions, scheme compress.Scheme) (WANTreePoint, error) {
	fabA, err := transport.Listen(transport.Config{Listen: "127.0.0.1:0", Compress: scheme})
	if err != nil {
		return WANTreePoint{}, err
	}
	defer fabA.Close()
	fabB, err := transport.Listen(transport.Config{Listen: "127.0.0.1:0", Compress: scheme})
	if err != nil {
		return WANTreePoint{}, err
	}
	defer fabB.Close()

	counter := newDedupCounter(nil)
	cluster := eunomia.NewCluster(1, eunomia.Config{
		Partitions:     o.Partitions,
		StableInterval: time.Millisecond,
		MessageCost:    o.EunomiaMsgCost,
	}, func(_ types.ReplicaID, ops []*types.Update) { counter.consume(ops) })
	defer cluster.Stop()
	root := fabric.EunomiaAddr(0, 0)
	fabric.ServeReplica(fabB, root, cluster.Replica(0))

	// The replica is the only endpoint on fabB; everything else — the
	// aggregators and the partition clients feeding them — lives on
	// fabA, so fabA's transmit counters see exactly the aggregated
	// MultiBatchMsg stream (intra-endpoint sends short-circuit).
	fabA.AddRoute(root, fabB.Addr().String())
	fabB.AddDCRoute(0, fabA.Addr().String())

	nAggs := (o.Partitions + o.FanIn - 1) / o.FanIn
	aggs := make([]*fabric.Aggregator, nAggs)
	for i := range aggs {
		aggs[i] = fabric.NewAggregator(fabric.AggregatorConfig{
			Fabric:        fabA,
			Local:         fabric.Addr{DC: 0, Name: fmt.Sprintf("wan-agg-%d", i)},
			Parents:       []fabric.Addr{root},
			FlushInterval: o.BatchInterval,
			Level:         1,
		})
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	clients := make([]*eunomia.Client, o.Partitions)
	for i := 0; i < o.Partitions; i++ {
		pid := types.PartitionID(i)
		local := fabric.PartitionAddr(0, pid)
		remotes := []fabric.Addr{aggs[i%nAggs].LocalAddr()}
		if nAggs > 1 {
			remotes = append(remotes, aggs[(i+1)%nAggs].LocalAddr())
		}
		conns := make([]eunomia.Conn, len(remotes))
		rcs := make([]*fabric.ReplicaConn, len(remotes))
		for j, r := range remotes {
			rc := fabric.NewReplicaConn(fabA, local, r)
			rcs[j] = rc
			conns[j] = rc
		}
		fabA.Register(local, func(m fabric.Message) {
			for _, rc := range rcs {
				if rc.HandleMessage(m) {
					return
				}
			}
		})
		clients[i] = eunomia.NewClient(eunomia.ClientConfig{
			Partition:      pid,
			BatchInterval:  o.BatchInterval,
			MaxPending:     o.MaxPending,
			RedundantPaths: true,
		}, conns, hlc.NewClock(nil))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			producePartition(stop, clients[i], types.PartitionID(i), o.PerPartitionRate)
		}(i)
	}

	time.Sleep(o.Warmup)
	beforeOps := counter.total()
	before := fabA.CompressStats()
	time.Sleep(o.Duration)
	afterOps := counter.total()
	after := fabA.CompressStats()

	close(stop)
	for _, c := range clients {
		c.Close()
	}
	wg.Wait()
	for _, a := range aggs {
		a.Close()
	}

	pt := WANTreePoint{
		Scheme:    scheme,
		Ops:       afterOps - beforeOps,
		RawBytes:  after.TxRaw - before.TxRaw,
		WireBytes: after.TxWire - before.TxWire,
		Ratio:     1,
	}
	if pt.Ops > 0 {
		pt.BytesPerOp = float64(pt.WireBytes) / float64(pt.Ops)
	}
	if pt.WireBytes > 0 {
		pt.Ratio = float64(pt.RawBytes) / float64(pt.WireBytes)
	}
	return pt, nil
}
