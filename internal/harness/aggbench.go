package harness

// AggregatorBench measures the §5 propagation tree as it actually deploys
// on the fabric (fabric.Aggregator serving MultiBatchMsg frames): the
// orderer-ingress message rate per ordered operation across tree depths —
// flat all-to-one, one aggregator level, two levels — plus each tree's
// fan-in ratio and flush latency. It is the quantified version of the
// paper's scalability argument: past ~64 partitions the replica's message
// rate, not its op rate, is what stops scaling, and intermediate fan-in
// restores it.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"eunomia/internal/eunomia"
	"eunomia/internal/fabric"
	"eunomia/internal/hlc"
	"eunomia/internal/metrics"
	"eunomia/internal/simnet"
	"eunomia/internal/types"
)

// AggregatorBenchOptions parameterises the tree comparison.
type AggregatorBenchOptions struct {
	ServiceOptions
	// Partitions is the datacenter width (default 32).
	Partitions int
	// FanIn is the per-level fan-in factor: each level has
	// ceil(previous/FanIn) aggregators (default 4).
	FanIn int
	// Depths lists the tree depths to measure (default 0, 1, 2; 0 = flat).
	Depths []int
}

func (o *AggregatorBenchOptions) fill() {
	o.ServiceOptions.fill()
	if o.Partitions <= 0 {
		o.Partitions = 32
	}
	if o.FanIn <= 0 {
		o.FanIn = 4
	}
	if len(o.Depths) == 0 {
		o.Depths = []int{0, 1, 2}
	}
}

// AggregatorTreePoint is one topology's measurement.
type AggregatorTreePoint struct {
	Depth int
	// Throughput is ordered (stabilized) operations per second.
	Throughput float64
	// IngressPerSec is fabric frames received by the replica per second;
	// IngressPerOp normalizes it by ordered operations — the quantity the
	// tree exists to reduce.
	IngressPerSec float64
	IngressPerOp  float64
	// ReductionVsFlat is flat IngressPerOp over this topology's (1 for
	// the flat run itself); a d-level tree should reach roughly
	// FanIn^d.
	ReductionVsFlat float64
	// FanInRatio is BatchesIn/BatchesOut summed over the level-1
	// aggregators (0 for the flat topology).
	FanInRatio float64
	// Flush latency percentiles over every aggregator's merge-and-forward
	// pass (0 for the flat topology).
	FlushP50, FlushP99 time.Duration
}

// AggregatorBenchResult reports every requested depth.
type AggregatorBenchResult struct {
	Points []AggregatorTreePoint
}

// AggregatorBench runs each requested depth on a zero-delay simnet and
// reports ingress reduction relative to the flat topology.
func AggregatorBench(o AggregatorBenchOptions) (AggregatorBenchResult, error) {
	o.fill()
	var res AggregatorBenchResult
	var flatPerOp float64
	for _, depth := range o.Depths {
		pt, err := aggregatorTreeLeg(o.ServiceOptions, o.Partitions, o.FanIn, depth)
		if err != nil {
			return res, err
		}
		if depth == 0 {
			flatPerOp = pt.IngressPerOp
		}
		if flatPerOp > 0 && pt.IngressPerOp > 0 {
			pt.ReductionVsFlat = flatPerOp / pt.IngressPerOp
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// ingressCountingFabric counts frames delivered to one endpoint — the
// replica's true ingress message rate, independent of how the replica's
// own counters attribute batches versus heartbeats.
type ingressCountingFabric struct {
	fabric.Fabric
	at fabric.Addr
	n  atomic.Int64
}

func (c *ingressCountingFabric) Register(a fabric.Addr, h fabric.Handler) {
	if a == c.at {
		inner := h
		h = func(m fabric.Message) {
			c.n.Add(1)
			inner(m)
		}
	}
	c.Fabric.Register(a, h)
}

// aggregatorTreeLeg drives one topology: partitions → depth levels of
// fabric aggregators → one Eunomia replica, all over a zero-delay simnet,
// under the rate-paced saturation load the service benchmarks use.
func aggregatorTreeLeg(o ServiceOptions, partitions, fanIn, depth int) (AggregatorTreePoint, error) {
	if depth < 0 || fanIn < 1 {
		return AggregatorTreePoint{}, fmt.Errorf("harness: bad tree shape depth=%d fanIn=%d", depth, fanIn)
	}
	net := simnet.New(func(from, to fabric.Addr) time.Duration { return 0 })
	defer net.Close()

	counter := newDedupCounter(nil)
	cluster := eunomia.NewCluster(1, eunomia.Config{
		Partitions:     partitions,
		StableInterval: time.Millisecond,
		MessageCost:    o.EunomiaMsgCost,
	}, func(_ types.ReplicaID, ops []*types.Update) { counter.consume(ops) })
	defer cluster.Stop()
	root := fabric.EunomiaAddr(0, 0)
	ingress := &ingressCountingFabric{Fabric: net, at: root}
	fabric.ServeReplica(ingress, root, cluster.Replica(0))

	// Build the tree from the root level down so every parent endpoint
	// exists before its children start flushing at it. Level k (1-based,
	// levels[k-1]) has ceil(previous/fanIn) nodes; every non-root level's
	// nodes dual-home at a pair of parents, the same redundant-path
	// pattern partitions use toward level 1.
	sizes := make([]int, depth)
	prev := partitions
	for k := 0; k < depth; k++ {
		sizes[k] = (prev + fanIn - 1) / fanIn
		prev = sizes[k]
	}
	levels := make([][]*fabric.Aggregator, depth)
	for k := depth - 1; k >= 0; k-- {
		levels[k] = make([]*fabric.Aggregator, sizes[k])
		for i := range levels[k] {
			var parents []fabric.Addr
			redundant := false
			if k == depth-1 {
				parents = []fabric.Addr{root}
			} else {
				up := levels[k+1]
				parents = append(parents, up[i%len(up)].LocalAddr())
				if len(up) > 1 {
					parents = append(parents, up[(i+1)%len(up)].LocalAddr())
				}
				redundant = true
			}
			levels[k][i] = fabric.NewAggregator(fabric.AggregatorConfig{
				Fabric:           net,
				Local:            fabric.Addr{DC: 0, Name: fmt.Sprintf("bench-agg-l%d-%d", k+1, i)},
				Parents:          parents,
				RedundantParents: redundant,
				FlushInterval:    o.BatchInterval,
				Level:            k + 1,
			})
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	clients := make([]*eunomia.Client, partitions)
	for i := 0; i < partitions; i++ {
		pid := types.PartitionID(i)
		local := fabric.PartitionAddr(0, pid)
		var remotes []fabric.Addr
		if depth == 0 {
			remotes = []fabric.Addr{root}
		} else {
			leaves := levels[0]
			remotes = append(remotes, leaves[i%len(leaves)].LocalAddr())
			if len(leaves) > 1 {
				remotes = append(remotes, leaves[(i+1)%len(leaves)].LocalAddr())
			}
		}
		conns := make([]eunomia.Conn, len(remotes))
		rcs := make([]*fabric.ReplicaConn, len(remotes))
		for j, r := range remotes {
			rc := fabric.NewReplicaConn(net, local, r)
			rcs[j] = rc
			conns[j] = rc
		}
		net.Register(local, func(m fabric.Message) {
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
			RedundantPaths: depth > 0,
		}, conns, hlc.NewClock(nil))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			producePartition(stop, clients[i], types.PartitionID(i), o.PerPartitionRate)
		}(i)
	}

	time.Sleep(o.Warmup)
	beforeOps := counter.total()
	beforeMsgs := ingress.n.Load()
	time.Sleep(o.Duration)
	afterOps := counter.total()
	afterMsgs := ingress.n.Load()

	close(stop)
	for _, c := range clients {
		c.Close()
	}
	wg.Wait()
	for k := 0; k < depth; k++ { // children before parents: final flushes drain upward
		for _, a := range levels[k] {
			a.Close()
		}
	}

	secs := o.Duration.Seconds()
	pt := AggregatorTreePoint{
		Depth:         depth,
		Throughput:    float64(afterOps-beforeOps) / secs,
		IngressPerSec: float64(afterMsgs-beforeMsgs) / secs,
	}
	if ops := afterOps - beforeOps; ops > 0 {
		pt.IngressPerOp = float64(afterMsgs-beforeMsgs) / float64(ops)
	}
	if depth > 0 {
		var in, out int64
		flush := metrics.NewHistogram()
		for _, a := range levels[0] {
			in += a.BatchesIn.Load()
			out += a.BatchesOut.Load()
		}
		for k := 0; k < depth; k++ {
			for _, a := range levels[k] {
				flush.Merge(a.FlushLatency)
			}
		}
		if out > 0 {
			pt.FanInRatio = float64(in) / float64(out)
		}
		pt.FlushP50 = time.Duration(flush.Percentile(50))
		pt.FlushP99 = time.Duration(flush.Percentile(99))
	}
	return pt, nil
}
