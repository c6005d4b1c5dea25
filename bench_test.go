package eunomia

// Macro-benchmarks: one per figure of the paper's evaluation, wrapping the
// drivers in internal/harness. Each iteration runs a shortened experiment
// and reports the figure's headline quantities as custom metrics; full
// paper-scale runs go through cmd/eunomia-bench.
//
// The ablation benches at the bottom measure the design choices DESIGN.md
// calls out: red-black vs AVL pending set (§6), batching interval (§5),
// scalar vs vector metadata (§4), data/metadata separation (§5).

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"eunomia/internal/harness"
	"eunomia/internal/types"
	"eunomia/internal/workload"
)

// metricName turns a free-form label into a valid ReportMetric unit
// (testing forbids whitespace in units).
func metricName(label, suffix string) string {
	return strings.ReplaceAll(label, " ", "-") + suffix
}

func benchOptions() harness.Options {
	return harness.Options{
		Duration:     500 * time.Millisecond,
		Warmup:       250 * time.Millisecond,
		WorkersPerDC: 4,
		Partitions:   4,
		RTTScale:     0.25,
	}
}

func benchService() harness.ServiceOptions {
	return harness.ServiceOptions{
		Duration: 400 * time.Millisecond,
		Warmup:   150 * time.Millisecond,
	}
}

// BenchmarkFig1_TradeoffSweep reports the sequencer's throughput penalty
// and GentleRain/Cure visibility at one stabilization interval.
func BenchmarkFig1_TradeoffSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := harness.Fig1(benchOptions(), []time.Duration{10 * time.Millisecond})
		for _, p := range res.Points {
			switch p.System {
			case harness.SSeq:
				b.ReportMetric(p.PenaltyPct, "sseq-penalty-%")
			case harness.ASeq:
				b.ReportMetric(p.PenaltyPct, "aseq-penalty-%")
			case harness.GentleRain:
				b.ReportMetric(float64(p.VisP90.Milliseconds()), "gentlerain-p90-ms")
			case harness.Cure:
				b.ReportMetric(float64(p.VisP90.Milliseconds()), "cure-p90-ms")
			}
		}
	}
}

// BenchmarkFig2_ServiceThroughput reports the saturated service rates and
// the headline Eunomia/sequencer ratio (paper: 7.7×).
func BenchmarkFig2_ServiceThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := harness.Fig2(benchService(), []int{30, 60})
		b.ReportMetric(res.Ratio, "eunomia/sequencer-ratio")
		for _, p := range res.Points {
			if p.Partitions == 60 {
				b.ReportMetric(p.Throughput, p.Service+"-ops/s")
			}
		}
	}
}

// BenchmarkFig3_FaultToleranceOverhead reports normalized throughput of
// the replicated configurations.
func BenchmarkFig3_FaultToleranceOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := harness.Fig3(benchService(), 30)
		for _, p := range res.Points {
			b.ReportMetric(p.Normalized, metricName(p.Config, "-normalized"))
		}
	}
}

// BenchmarkFig4_FailureImpact reports whether each configuration survives
// the two-crash schedule (fraction of steady-state throughput retained at
// the end of the run).
func BenchmarkFig4_FailureImpact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := harness.Fig4(harness.Fig4Options{
			Total:      3 * time.Second,
			Crash1:     time.Second,
			Crash2:     2 * time.Second,
			Bucket:     250 * time.Millisecond,
			Partitions: 8,
		})
		for _, s := range res.Series {
			if len(s.Normalized) == 0 {
				continue
			}
			b.ReportMetric(s.Normalized[len(s.Normalized)-1], metricName(s.Config, "-final"))
		}
	}
}

// BenchmarkFig5_GeoThroughput reports EunomiaKV's throughput relative to
// eventual consistency for the 90:10 uniform workload (paper: −4.7% on
// average across workloads).
func BenchmarkFig5_GeoThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := harness.Fig5(benchOptions(),
			[]workload.Mix{{ReadPct: 90}},
			[]workload.KeyDist{workload.Uniform{N: workload.DefaultKeys}})
		for _, c := range res.Cells {
			if c.System == harness.Eventual {
				b.ReportMetric(c.Throughput, "eventual-ops/s")
			}
			if c.System == harness.EunomiaKV {
				b.ReportMetric(c.Throughput, "eunomiakv-ops/s")
				b.ReportMetric((c.VsEventual-1)*100, "eunomiakv-vs-eventual-%")
			}
		}
	}
}

// BenchmarkFig6_VisibilityCDF reports the p90 remote update visibility
// latency per system for the dc0→dc1 pair.
func BenchmarkFig6_VisibilityCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := harness.Fig6(benchOptions())
		for _, c := range res.Curves {
			if c.Origin == types.DCID(0) && c.Dest == types.DCID(1) {
				b.ReportMetric(float64(c.P90.Microseconds())/1000, string(c.System)+"-p90-ms")
			}
		}
	}
}

// BenchmarkFig7_Stragglers reports the peak mean visibility delay during
// the straggling act for a 100ms straggle interval (expected ≈ interval/2
// above baseline).
func BenchmarkFig7_Stragglers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := harness.Fig7(harness.Fig7Options{
			Options:   benchOptions(),
			Phase:     time.Second,
			Bucket:    250 * time.Millisecond,
			Intervals: []time.Duration{100 * time.Millisecond},
		})
		peak := 0.0
		for _, v := range res.Series[0].VisibilityMs {
			if v == v && v > peak { // skip NaN
				peak = v
			}
		}
		b.ReportMetric(peak, "peak-visibility-ms")
	}
}

// BenchmarkRecoveryRejoin compares a crashed partition-role node's
// durable rejoin (WAL replay + release-stream resume at the durable
// watermark) against the volatile alternative, a full re-replication of
// the dataset from the origin datacenter. The recovery numbers land in
// BENCH_ci.json via the CI bench job.
func BenchmarkRecoveryRejoin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RecoveryBench(harness.RecoveryBenchOptions{Updates: 1000, Partitions: 2})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.RejoinSecs*1e3, "rejoin-ms")
		b.ReportMetric(res.ResyncSecs*1e3, "resync-ms")
		b.ReportMetric(res.Speedup, "rejoin-speedup-x")
	}
}

// BenchmarkSnapshotBootstrap compares the three ways a partition-role
// node comes up with the dataset: pulling a compressed pinned snapshot
// from a live peer (the new bootstrap path), a full resync (the origin
// re-replicates every update over the WAN — the only option a
// from-scratch replica had before), and a local replay (the data dir
// survived; RecoveryBench's rejoin). The acceptance bar is snapshot-ship
// ≥5× faster than full resync at the largest dataset. Archived in
// BENCH_ci.json by the CI bench job.
func BenchmarkSnapshotBootstrap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.BootstrapBench(harness.BootstrapBenchOptions{
			Updates: 10000, Partitions: 2, StoreBackend: "disk",
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ShipSecs*1e3, "ship-ms")
		b.ReportMetric(res.ResyncSecs*1e3, "resync-ms")
		b.ReportMetric(res.ReplaySecs*1e3, "replay-ms")
		b.ReportMetric(res.ShipVsResync, "ship-vs-resync-x")
		b.ReportMetric(float64(res.ShipBytes), "ship-wire-B")
		b.ReportMetric(float64(res.ShipChunks), "ship-chunks")
	}
}

// BenchmarkDurableSaturation is the group-commit headline: end-to-end
// client update throughput with no WAL, with a flush-cadence WAL, and
// with group commit's durable-on-return guarantee. Archived in
// BENCH_ci.json by the CI bench job.
func BenchmarkDurableSaturation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.SaturationBench(harness.SaturationBenchOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.VolatileOps, "volatile-ops/s")
		b.ReportMetric(res.FlushOps, "flush-ops/s")
		b.ReportMetric(res.GroupOps, "group-ops/s")
	}
}

// BenchmarkOpenLoopLoad is the front-door latency smoke: the open-loop
// generator drives dc0's frontend over the fabric at a fixed offered rate
// and reports coordinated-omission-safe operation-latency percentiles
// (measured from each op's scheduled arrival, so stalls land in the tail
// instead of thinning the load). Archived in BENCH_ci.json by the CI
// bench job; a nonzero backlog marks the percentiles as a lower bound.
func BenchmarkOpenLoopLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.LoadBench(harness.LoadBenchOptions{
			Rate:     2000,
			Duration: 500 * time.Millisecond,
			Warmup:   200 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Throughput, "ops/s")
		b.ReportMetric(float64(res.P50.Microseconds())/1e3, "p50-ms")
		b.ReportMetric(float64(res.P99.Microseconds())/1e3, "p99-ms")
		b.ReportMetric(float64(res.P999.Microseconds())/1e3, "p999-ms")
		b.ReportMetric(float64(res.ServiceP99.Microseconds())/1e3, "service-p99-ms")
		b.ReportMetric(float64(res.Backlog), "backlog-ops")
	}
}

// BenchmarkAblationTreeChoice re-checks §6's claim that the red-black tree
// beats an AVL tree for Eunomia's insert/extract workload, beside the
// per-stream run set that replaced both.
func BenchmarkAblationTreeChoice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := harness.AblationTree(benchService(), 30)
		b.ReportMetric(res.Runs, "runs-ops/s")
		b.ReportMetric(res.RedBlack, "redblack-ops/s")
		b.ReportMetric(res.AVL, "avl-ops/s")
	}
}

// BenchmarkAblationBatching sweeps the partition→Eunomia batching interval
// (§5: batching stretches Eunomia's capacity without blocking clients).
func BenchmarkAblationBatching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := harness.AblationBatching(benchService(), 30,
			[]time.Duration{time.Millisecond, 5 * time.Millisecond})
		for _, p := range pts {
			b.ReportMetric(p.Throughput, p.Interval.String()+"-ops/s")
		}
	}
}

// BenchmarkAblationScalarVsVector quantifies §4's metadata tradeoff: the
// scalar compresses metadata but inflates the dc0→dc1 visibility latency
// toward the farthest-datacenter bound.
func BenchmarkAblationScalarVsVector(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := harness.AblationScalarVsVector(benchOptions())
		b.ReportMetric(float64(res.VectorVisP90.Microseconds())/1000, "vector-p90-ms")
		b.ReportMetric(float64(res.ScalarVisP90.Microseconds())/1000, "scalar-p90-ms")
	}
}

// BenchmarkAblationPropagationTree measures §5's fan-in optimization: a
// tree of aggregators cuts the message rate the Eunomia replica must
// absorb at large partition counts.
func BenchmarkAblationPropagationTree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := harness.AblationPropagationTree(benchService(), 30, 10)
		b.ReportMetric(res.DirectBatches, "direct-msgs/s")
		b.ReportMetric(res.TreeBatches, "tree-msgs/s")
	}
}

// BenchmarkAggregatorTree measures the propagation tree as deployed on
// the fabric (fabric.Aggregator merging MultiBatchMsg frames): orderer
// ingress messages per ordered operation across tree depths — flat,
// one-level, two-level — with each tree's fan-in ratio
// (BatchesIn/BatchesOut) and flush latency. The acceptance bar is an
// ingress reduction of at least the topology's fan-in factor versus flat.
func BenchmarkAggregatorTree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.AggregatorBench(harness.AggregatorBenchOptions{
			ServiceOptions: harness.ServiceOptions{
				Duration:         400 * time.Millisecond,
				Warmup:           150 * time.Millisecond,
				PerPartitionRate: 8000,
			},
			Partitions: 32,
			FanIn:      4,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range res.Points {
			prefix := fmt.Sprintf("depth%d", p.Depth)
			b.ReportMetric(p.IngressPerOp, prefix+"-ingress-msgs/op")
			b.ReportMetric(p.Throughput, prefix+"-ordered-ops/s")
			if p.Depth > 0 {
				b.ReportMetric(p.ReductionVsFlat, prefix+"-ingress-reduction-x")
				b.ReportMetric(p.FanInRatio, prefix+"-fanin-ratio")
				b.ReportMetric(float64(p.FlushP99.Microseconds()), prefix+"-flush-p99-us")
			}
		}
	}
}

// BenchmarkAblationDataMetadataSeparation measures §5's separation toggle.
// In-process, payloads are pointers, so separation costs bookkeeping
// rather than saving bytes — the inversion DESIGN.md documents.
func BenchmarkAblationDataMetadataSeparation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := harness.AblationDataSeparation(benchOptions())
		b.ReportMetric(res.SeparatedThr, "separated-ops/s")
		b.ReportMetric(res.CombinedThr, "combined-ops/s")
	}
}

// BenchmarkWANMatrix runs the emulated-WAN scenario matrix: all five
// systems × off/snappy/zstd as one TCP process per datacenter behind the
// default asymmetric 3-DC topology (latency, jitter, loss, bandwidth)
// with skewed per-datacenter clocks. Bytes-on-wire per operation and
// remote-visibility latency percentiles per cell land in BENCH_ci.json
// via the CI bench job — the visibility curves of §7 with the network
// bill attached.
func BenchmarkWANMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.WANBench(harness.WANBenchOptions{
			Duration: 400 * time.Millisecond,
			Warmup:   150 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range res.Cells {
			label := metricName(strings.ToLower(string(c.System)), "-"+c.Scheme.String())
			b.ReportMetric(c.BytesPerOp, label+"-wire-B/op")
			b.ReportMetric(c.Ratio, label+"-compress-ratio")
			b.ReportMetric(float64(c.VisP50.Microseconds())/1000, label+"-vis-p50-ms")
			b.ReportMetric(float64(c.VisP90.Microseconds())/1000, label+"-vis-p90-ms")
			b.ReportMetric(float64(c.VisP99.Microseconds())/1000, label+"-vis-p99-ms")
		}
	}
}

// BenchmarkWANTreeBytes is the compression acceptance measurement: the
// MultiBatchMsg-heavy aggregator-tree hop over TCP per compression
// scheme. The bar is a ≥2× bytes-on-wire reduction for zstd versus the
// uncompressed wire codec; snappy sits in between at lower CPU.
func BenchmarkWANTreeBytes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.WANTreeBytes(harness.WANTreeOptions{
			ServiceOptions: harness.ServiceOptions{
				Duration: 400 * time.Millisecond,
				Warmup:   150 * time.Millisecond,
			},
			Partitions: 16,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range res.Points {
			prefix := "tree-" + p.Scheme.String()
			b.ReportMetric(p.BytesPerOp, prefix+"-wire-B/op")
			b.ReportMetric(p.Ratio, prefix+"-compress-ratio")
			b.ReportMetric(p.ReductionVsOff, prefix+"-reduction-vs-off-x")
		}
	}
}
