package harness

import (
	"time"

	"eunomia/internal/eunomia"
	"eunomia/internal/geostore"
	"eunomia/internal/types"
	"eunomia/internal/workload"
)

// TreeAblationResult compares the pending sets at the saturating partition
// count: the per-stream run set every deployment runs, and the red-black
// and AVL trees of §6 (which reports the red-black tree won).
type TreeAblationResult struct {
	Runs     float64 // ops/s
	RedBlack float64
	AVL      float64
}

// AblationTree measures the pending-set implementations under Figure 2
// saturation load.
func AblationTree(o ServiceOptions, partitions int) TreeAblationResult {
	o.fill()
	if partitions <= 0 {
		partitions = 60
	}
	return TreeAblationResult{
		Runs:     eunomiaSaturation(o, partitions, 1, false, eunomia.Runs),
		RedBlack: eunomiaSaturation(o, partitions, 1, false, eunomia.RedBlack),
		AVL:      eunomiaSaturation(o, partitions, 1, false, eunomia.AVL),
	}
}

// BatchingPoint is one batching-interval measurement.
type BatchingPoint struct {
	Interval   time.Duration
	Throughput float64
}

// AblationBatching sweeps the partition→Eunomia batching interval. The
// paper (§7.1) notes Eunomia's throughput "can be further stretched by
// increasing the batching time (while slightly increasing the remote
// update visibility latency)" — unlike sequencers, whose batching would
// block clients.
func AblationBatching(o ServiceOptions, partitions int, intervals []time.Duration) []BatchingPoint {
	o.fill()
	if partitions <= 0 {
		partitions = 60
	}
	if len(intervals) == 0 {
		intervals = []time.Duration{
			500 * time.Microsecond, time.Millisecond, 2 * time.Millisecond,
			5 * time.Millisecond, 10 * time.Millisecond,
		}
	}
	var out []BatchingPoint
	for _, iv := range intervals {
		opts := o
		opts.BatchInterval = iv
		out = append(out, BatchingPoint{
			Interval:   iv,
			Throughput: eunomiaSaturation(opts, partitions, 1, false, eunomia.Runs),
		})
	}
	return out
}

// TreeFanInResult compares direct all-to-one partition→Eunomia
// communication against a §5 propagation tree of aggregators.
type TreeFanInResult struct {
	DirectThroughput float64
	TreeThroughput   float64
	// DirectBatches / TreeBatches are messages received by the Eunomia
	// replica per second — the quantity the tree exists to reduce.
	DirectBatches float64
	TreeBatches   float64
}

// AblationPropagationTree runs the saturation load with partitions feeding
// the replica directly, then through a one-level tree of fan-in
// aggregators — the real fabric deployment (fabric.Aggregator over
// MultiBatchMsg frames), not an in-process shortcut. AggregatorBench is
// the deeper-tree generalization.
func AblationPropagationTree(o ServiceOptions, partitions, fanIn int) TreeFanInResult {
	o.fill()
	if partitions <= 0 {
		partitions = 60
	}
	if fanIn <= 0 {
		fanIn = 15
	}
	var res TreeFanInResult
	flat, err := aggregatorTreeLeg(o, partitions, fanIn, 0)
	if err != nil {
		// Only reachable through an invalid shape, which the defaults
		// above rule out; a zero-valued result would just fail callers
		// with a confusing "no fan-in gain: 0 vs 0" instead.
		panic("harness: " + err.Error())
	}
	tree, err := aggregatorTreeLeg(o, partitions, fanIn, 1)
	if err != nil {
		panic("harness: " + err.Error())
	}
	res.DirectThroughput, res.DirectBatches = flat.Throughput, flat.IngressPerSec
	res.TreeThroughput, res.TreeBatches = tree.Throughput, tree.IngressPerSec
	return res
}

// MetaAblationResult compares vector against scalar client metadata in the
// full geo store (§4's discussion of the metadata tradeoff).
type MetaAblationResult struct {
	// VisP90 per metadata mode, for updates dc0→dc1 — the pair where
	// vectors should win (the scalar forces a wait on the farthest DC).
	VectorVisP90 time.Duration
	ScalarVisP90 time.Duration
	VectorThr    float64
	ScalarThr    float64
}

// AblationScalarVsVector runs EunomiaKV in both metadata modes.
func AblationScalarVsVector(o Options) MetaAblationResult {
	o.fill()
	run := func(scalar bool) (time.Duration, float64) {
		sys := buildSystem(EunomiaKV, o, buildOpts{eunomiaCfg: func(c *geostore.Config) {
			c.ScalarMeta = scalar
		}})
		defer sys.close()
		r := runWorkload(o, sys, workload.Mix{ReadPct: 90}, workload.Uniform{N: workload.DefaultKeys})
		return time.Duration(sys.vis.Hist(types.DCID(0), types.DCID(1)).Percentile(90)), r.Throughput()
	}
	var res MetaAblationResult
	res.VectorVisP90, res.VectorThr = run(false)
	res.ScalarVisP90, res.ScalarThr = run(true)
	return res
}

// SeparationAblationResult compares §5 data/metadata separation on vs off.
type SeparationAblationResult struct {
	SeparatedThr float64
	CombinedThr  float64
	SeparatedP90 time.Duration
	CombinedP90  time.Duration
}

// AblationDataSeparation runs EunomiaKV with payloads shipped
// partition-to-partition (the prototype's mode) and with payloads carried
// through Eunomia.
func AblationDataSeparation(o Options) SeparationAblationResult {
	o.fill()
	run := func(noSep bool) (float64, time.Duration) {
		sys := buildSystem(EunomiaKV, o, buildOpts{eunomiaCfg: func(c *geostore.Config) {
			c.NoSeparation = noSep
		}})
		defer sys.close()
		r := runWorkload(o, sys, workload.Mix{ReadPct: 75}, workload.Uniform{N: workload.DefaultKeys})
		return r.Throughput(), time.Duration(sys.vis.Hist(types.DCID(0), types.DCID(1)).Percentile(90))
	}
	var res SeparationAblationResult
	res.SeparatedThr, res.SeparatedP90 = run(false)
	res.CombinedThr, res.CombinedP90 = run(true)
	return res
}
