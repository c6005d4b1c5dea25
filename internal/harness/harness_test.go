package harness

import (
	"math"
	"testing"
	"time"

	"eunomia/internal/types"
	"eunomia/internal/workload"
)

// The harness tests run each experiment driver at miniature scale: they
// validate plumbing (systems build, workloads drive them, metrics come
// back sane), not the paper's numbers — those need full-length runs via
// cmd/eunomia-bench.

func tinyOptions() Options {
	return Options{
		Duration:     200 * time.Millisecond,
		Warmup:       100 * time.Millisecond,
		WorkersPerDC: 2,
		Partitions:   2,
		RTTScale:     0.05,
	}
}

func tinyService() ServiceOptions {
	return ServiceOptions{
		Duration: 200 * time.Millisecond,
		Warmup:   100 * time.Millisecond,
	}
}

func TestBuildEverySystem(t *testing.T) {
	o := tinyOptions()
	o.fill()
	for _, kind := range []SystemKind{Eventual, EunomiaKV, GentleRain, Cure, SSeq, ASeq} {
		t.Run(string(kind), func(t *testing.T) {
			sys := buildSystem(kind, o, buildOpts{})
			defer sys.close()
			r := runWorkload(o, sys, workload.Mix{ReadPct: 75}, workload.Uniform{N: 1000})
			if r.Ops == 0 {
				t.Fatalf("%s: no operations completed", kind)
			}
			if r.Errors != 0 {
				t.Fatalf("%s: %d client errors", kind, r.Errors)
			}
		})
	}
}

func TestVisMatrix(t *testing.T) {
	v := NewVisMatrix(3)
	v.Record(0, 1, 5*time.Millisecond)
	v.Record(0, 1, 7*time.Millisecond)
	v.Record(2, 1, time.Millisecond)
	if v.Hist(0, 1).Count() != 2 {
		t.Fatal("Hist routing wrong")
	}
	if v.All().Count() != 3 {
		t.Fatal("All() merge wrong")
	}
}

func TestDedupCounter(t *testing.T) {
	d := newDedupCounter(nil)
	ops := []*types.Update{
		{Partition: 0, Seq: 1}, {Partition: 0, Seq: 2}, {Partition: 1, Seq: 1},
	}
	d.consume(ops)
	d.consume(ops) // duplicate shipment
	if d.total() != 3 {
		t.Fatalf("dedup total = %d, want 3", d.total())
	}
	d.consume([]*types.Update{{Partition: 0, Seq: 3}})
	if d.total() != 4 {
		t.Fatalf("dedup total = %d, want 4", d.total())
	}
}

func TestFig1Tiny(t *testing.T) {
	res := Fig1(tinyOptions(), []time.Duration{5 * time.Millisecond})
	if res.Baseline <= 0 {
		t.Fatal("no baseline throughput")
	}
	// 2 sequencer points + 2 stabilization systems × 1 interval.
	if len(res.Points) != 4 {
		t.Fatalf("points = %d, want 4", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Throughput <= 0 {
			t.Fatalf("%s: zero throughput", p.System)
		}
	}
}

func TestFig2Tiny(t *testing.T) {
	res := Fig2(tinyService(), []int{4, 8})
	if len(res.Points) != 4 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if res.Ratio <= 1 {
		t.Fatalf("Eunomia did not out-scale the sequencer: ratio %.2f", res.Ratio)
	}
}

func TestFig3Tiny(t *testing.T) {
	res := Fig3(tinyService(), 8)
	if len(res.Points) != 6 {
		t.Fatalf("points = %d, want 6", len(res.Points))
	}
	if res.Points[0].Config != "Eunomia Non-FT" || res.Points[0].Normalized != 1 {
		t.Fatalf("baseline row wrong: %+v", res.Points[0])
	}
	for _, p := range res.Points {
		if p.Throughput <= 0 {
			t.Fatalf("%s: zero throughput", p.Config)
		}
	}
}

func TestFig4Tiny(t *testing.T) {
	res := Fig4(Fig4Options{
		Total:      2 * time.Second,
		Crash1:     700 * time.Millisecond,
		Crash2:     1400 * time.Millisecond,
		Bucket:     200 * time.Millisecond,
		Partitions: 4,
	})
	if len(res.Series) != 4 {
		t.Fatalf("series = %d", len(res.Series))
	}
	// 1-FT must flatline after the first crash.
	oneFT := res.Series[1]
	if oneFT.Config != "Eunomia 1-FT" {
		t.Fatalf("series order: %s", oneFT.Config)
	}
	last := oneFT.Normalized[len(oneFT.Normalized)-1]
	if last != 0 {
		t.Fatalf("1-FT still shipping after its only replica crashed: %f", last)
	}
	// 3-FT must survive both crashes.
	threeFT := res.Series[3]
	if threeFT.Normalized[len(threeFT.Normalized)-1] <= 0 {
		t.Fatal("3-FT did not survive two crashes")
	}
}

func TestFig6Tiny(t *testing.T) {
	res := Fig6(tinyOptions())
	if len(res.Curves) != 6 { // 3 systems × 2 pairs
		t.Fatalf("curves = %d", len(res.Curves))
	}
	for _, c := range res.Curves {
		if c.Count == 0 {
			t.Fatalf("%s %d→%d: no visibility samples", c.System, c.Origin, c.Dest)
		}
		if c.P90 < c.P50 {
			t.Fatalf("%s: percentile inversion", c.System)
		}
	}
	// The headline ordering on the near pair: EunomiaKV below GentleRain.
	var eu, gr time.Duration
	for _, c := range res.Curves {
		if c.Origin == 0 && c.Dest == 1 {
			switch c.System {
			case EunomiaKV:
				eu = c.P90
			case GentleRain:
				gr = c.P90
			}
		}
	}
	if eu >= gr {
		t.Fatalf("EunomiaKV p90 (%v) not below GentleRain (%v) on dc0→dc1", eu, gr)
	}
}

func TestFig7Tiny(t *testing.T) {
	res := Fig7(Fig7Options{
		Options:   tinyOptions(),
		Phase:     500 * time.Millisecond,
		Bucket:    250 * time.Millisecond,
		Intervals: []time.Duration{100 * time.Millisecond},
	})
	if len(res.Series) != 1 {
		t.Fatalf("series = %d", len(res.Series))
	}
	any := false
	for _, v := range res.Series[0].VisibilityMs {
		if !math.IsNaN(v) && v > 0 {
			any = true
		}
	}
	if !any {
		t.Fatal("no visibility samples in the straggler series")
	}
}

func TestAblationsTiny(t *testing.T) {
	tree := AblationTree(tinyService(), 8)
	if tree.Runs <= 0 || tree.RedBlack <= 0 || tree.AVL <= 0 {
		t.Fatalf("tree ablation: %+v", tree)
	}
	pts := AblationBatching(tinyService(), 4, []time.Duration{time.Millisecond, 2 * time.Millisecond})
	if len(pts) != 2 || pts[0].Throughput <= 0 {
		t.Fatalf("batching ablation: %+v", pts)
	}
	meta := AblationScalarVsVector(tinyOptions())
	if meta.VectorThr <= 0 || meta.ScalarThr <= 0 {
		t.Fatalf("metadata ablation: %+v", meta)
	}
	sep := AblationDataSeparation(tinyOptions())
	if sep.SeparatedThr <= 0 || sep.CombinedThr <= 0 {
		t.Fatalf("separation ablation: %+v", sep)
	}
}

func TestAblationPropagationTreeTiny(t *testing.T) {
	res := AblationPropagationTree(tinyService(), 8, 4)
	if res.DirectThroughput <= 0 || res.TreeThroughput <= 0 {
		t.Fatalf("tree ablation produced no throughput: %+v", res)
	}
	if res.TreeBatches >= res.DirectBatches {
		t.Fatalf("propagation tree did not reduce replica messages: direct %.0f/s vs tree %.0f/s",
			res.DirectBatches, res.TreeBatches)
	}
}

// TestAggregatorBenchReducesIngressByFanIn is the acceptance check behind
// BenchmarkAggregatorTree: a one-level tree of ceil(P/FanIn) aggregators
// must cut the orderer's ingress messages per ordered operation by at
// least the topology's fan-in factor (partitions over fan-in set size),
// with a little slack for scheduler jitter at tiny durations.
func TestAggregatorBenchReducesIngressByFanIn(t *testing.T) {
	o := AggregatorBenchOptions{
		ServiceOptions: ServiceOptions{
			Duration:         300 * time.Millisecond,
			Warmup:           150 * time.Millisecond,
			PerPartitionRate: 8000, // >= one op per flush tick: every flush carries data
		},
		Partitions: 12,
		FanIn:      3, // 12 partitions over 4 aggregators: factor 3
		Depths:     []int{0, 1},
	}
	res, err := AggregatorBench(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points: %+v", res.Points)
	}
	flat, tree := res.Points[0], res.Points[1]
	if flat.IngressPerOp <= 0 || tree.IngressPerOp <= 0 {
		t.Fatalf("no ingress measured: flat %+v tree %+v", flat, tree)
	}
	factor := float64(o.Partitions) / float64((o.Partitions+o.FanIn-1)/o.FanIn)
	if tree.ReductionVsFlat < factor*0.8 {
		t.Fatalf("tree reduced orderer ingress by %.2fx, want >= ~%.1fx (flat %.4f msgs/op, tree %.4f msgs/op)",
			tree.ReductionVsFlat, factor, flat.IngressPerOp, tree.IngressPerOp)
	}
	if tree.FanInRatio <= 1 {
		t.Fatalf("fan-in ratio %.2f, want > 1", tree.FanInRatio)
	}
	if tree.FlushP99 <= 0 {
		t.Fatal("flush latency histogram empty")
	}
}
