// Command eunomia-bench regenerates the figures of "Unobtrusive Deferred
// Update Stabilization for Efficient Geo-Replication" (USENIX ATC 2017)
// against this repository's implementation, printing one markdown table
// per figure.
//
// Usage:
//
//	eunomia-bench [flags] fig1|fig2|fig3|fig4|fig5|fig6|fig7|wan|ablations|all
//
// Durations default to quick, laptop-scale runs; raise -duration (and
// -phase for fig7, -total for fig4) for longer, lower-variance runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"eunomia/internal/harness"
	"eunomia/internal/types"
)

func main() {
	var (
		duration   = flag.Duration("duration", 2*time.Second, "measured window per data point")
		warmup     = flag.Duration("warmup", 500*time.Millisecond, "warmup before each measured window")
		workers    = flag.Int("workers", 8, "closed-loop clients per datacenter")
		partitions = flag.Int("partitions", 8, "partitions per datacenter")
		dcs        = flag.Int("dcs", 3, "datacenters")
		rttScale   = flag.Float64("rtt-scale", 1.0, "scale factor on the paper's 80/80/160ms RTT matrix")
		svcDur     = flag.Duration("svc-duration", time.Second, "measured window for service-saturation points (figs 2-3)")
		total      = flag.Duration("total", 12*time.Second, "fig4 total runtime")
		phase      = flag.Duration("phase", 4*time.Second, "fig7 phase length")
	)
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: eunomia-bench [flags] fig1|fig2|fig3|fig4|fig5|fig6|fig7|wan|ablations|all")
		os.Exit(2)
	}

	opts := harness.Options{
		Duration:     *duration,
		Warmup:       *warmup,
		WorkersPerDC: *workers,
		DCs:          *dcs,
		Partitions:   *partitions,
		RTTScale:     *rttScale,
	}
	svcOpts := harness.ServiceOptions{Duration: *svcDur}

	for _, cmd := range flag.Args() {
		switch strings.ToLower(cmd) {
		case "fig1":
			fig1(opts)
		case "fig2":
			fig2(svcOpts)
		case "fig3":
			fig3(svcOpts)
		case "fig4":
			fig4(harness.Fig4Options{Total: *total})
		case "fig5":
			fig5(opts)
		case "fig6":
			fig6(opts)
		case "fig7":
			fig7(harness.Fig7Options{Options: opts, Phase: *phase})
		case "wan":
			wanMatrix(opts)
		case "ablations":
			ablations(opts, svcOpts)
		case "all":
			fig1(opts)
			fig2(svcOpts)
			fig3(svcOpts)
			fig4(harness.Fig4Options{Total: *total})
			fig5(opts)
			fig6(opts)
			fig7(harness.Fig7Options{Options: opts, Phase: *phase})
			ablations(opts, svcOpts)
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", cmd)
			os.Exit(2)
		}
	}
}

func header(title string) {
	fmt.Printf("\n## %s\n\n", title)
}

func fig1(opts harness.Options) {
	header("Figure 1 — visibility latency vs throughput tradeoff (90:10, uniform)")
	res := harness.Fig1(opts, nil)
	fmt.Printf("Eventual-consistency baseline: %.0f ops/s\n\n", res.Baseline)
	fmt.Println("| system | interval | throughput (ops/s) | penalty vs eventual | visibility p90 dc0→dc1 |")
	fmt.Println("|---|---|---|---|---|")
	for _, p := range res.Points {
		iv := "—"
		if p.Interval > 0 {
			iv = p.Interval.String()
		}
		fmt.Printf("| %s | %s | %.0f | %.1f%% | %s |\n",
			p.System, iv, p.Throughput, p.PenaltyPct, p.VisP90.Round(time.Millisecond))
	}
}

func fig2(opts harness.ServiceOptions) {
	header("Figure 2 — service saturation: Eunomia vs sequencer")
	res := harness.Fig2(opts, nil)
	fmt.Println("| service | partitions | throughput (ops/s) |")
	fmt.Println("|---|---|---|")
	for _, p := range res.Points {
		fmt.Printf("| %s | %d | %.0f |\n", p.Service, p.Partitions, p.Throughput)
	}
	fmt.Printf("\nmax(Eunomia)/max(Sequencer) = **%.1f×** (paper: 7.7×)\n", res.Ratio)
}

func fig3(opts harness.ServiceOptions) {
	header("Figure 3 — fault-tolerance overhead")
	res := harness.Fig3(opts, 60)
	fmt.Println("| configuration | throughput (ops/s) | normalized |")
	fmt.Println("|---|---|---|")
	for _, p := range res.Points {
		fmt.Printf("| %s | %.0f | %.2f |\n", p.Config, p.Throughput, p.Normalized)
	}
}

func fig4(o harness.Fig4Options) {
	header("Figure 4 — impact of Eunomia replica failures")
	res := harness.Fig4(o)
	fmt.Printf("crash replica 0 at %v, replica 1 at %v, buckets of %v\n\n",
		res.Options.Crash1, res.Options.Crash2, res.Options.Bucket)
	fmt.Print("| t (bucket) |")
	for _, s := range res.Series {
		fmt.Printf(" %s |", s.Config)
	}
	fmt.Println()
	fmt.Print("|---|")
	for range res.Series {
		fmt.Print("---|")
	}
	fmt.Println()
	maxLen := 0
	for _, s := range res.Series {
		if len(s.Normalized) > maxLen {
			maxLen = len(s.Normalized)
		}
	}
	for i := 0; i < maxLen; i++ {
		fmt.Printf("| %d |", i)
		for _, s := range res.Series {
			if i < len(s.Normalized) {
				fmt.Printf(" %.2f |", s.Normalized[i])
			} else {
				fmt.Print(" |")
			}
		}
		fmt.Println()
	}
}

func fig5(opts harness.Options) {
	header("Figure 5 — geo-replicated throughput")
	res := harness.Fig5(opts, nil, nil)
	fmt.Println("| workload | dist | Eventual | EunomiaKV | GentleRain | Cure | EunomiaKV vs eventual |")
	fmt.Println("|---|---|---|---|---|---|---|")
	type key struct {
		mix  string
		dist string
	}
	rows := map[key]map[harness.SystemKind]harness.Fig5Cell{}
	var order []key
	for _, c := range res.Cells {
		k := key{c.Mix.String(), c.Dist}
		if rows[k] == nil {
			rows[k] = map[harness.SystemKind]harness.Fig5Cell{}
			order = append(order, k)
		}
		rows[k][c.System] = c
	}
	for _, k := range order {
		r := rows[k]
		fmt.Printf("| %s | %s | %.0f | %.0f | %.0f | %.0f | %.1f%% |\n",
			k.mix, k.dist,
			r[harness.Eventual].Throughput, r[harness.EunomiaKV].Throughput,
			r[harness.GentleRain].Throughput, r[harness.Cure].Throughput,
			(r[harness.EunomiaKV].VsEventual-1)*100)
	}
}

func fig6(opts harness.Options) {
	header("Figure 6 — remote update visibility latency (network factored out)")
	res := harness.Fig6(opts)
	fmt.Println("| system | pair | n | p50 | p90 | p95 | p99 |")
	fmt.Println("|---|---|---|---|---|---|---|")
	for _, c := range res.Curves {
		fmt.Printf("| %s | dc%d→dc%d | %d | %s | %s | %s | %s |\n",
			c.System, c.Origin, c.Dest, c.Count,
			c.P50.Round(time.Millisecond), c.P90.Round(time.Millisecond),
			c.P95.Round(time.Millisecond), c.P99.Round(time.Millisecond))
	}
	// CDF detail for the dc0→dc1 pair, decimated.
	fmt.Println("\nCDF (dc0→dc1), fraction visible within X ms:")
	fmt.Println("| system | 1ms | 5ms | 15ms | 45ms | 80ms | 120ms |")
	fmt.Println("|---|---|---|---|---|---|---|")
	marks := []time.Duration{time.Millisecond, 5 * time.Millisecond, 15 * time.Millisecond,
		45 * time.Millisecond, 80 * time.Millisecond, 120 * time.Millisecond}
	for _, c := range res.Curves {
		if c.Origin != types.DCID(0) || c.Dest != types.DCID(1) {
			continue
		}
		fmt.Printf("| %s |", c.System)
		for _, mark := range marks {
			frac := 0.0
			for _, pt := range c.CDF {
				if time.Duration(pt.Value) <= mark {
					frac = pt.Fraction
				}
			}
			fmt.Printf(" %.2f |", frac)
		}
		fmt.Println()
	}
}

func fig7(o harness.Fig7Options) {
	header("Figure 7 — straggler impact on visibility (dc2-origin updates at dc1)")
	res := harness.Fig7(o)
	intervals := make([]string, len(res.Series))
	for i, s := range res.Series {
		intervals[i] = s.Interval.String()
	}
	sort.Strings(intervals)
	fmt.Printf("phases of %v: healthy / straggler / healed; buckets of %v\n\n",
		res.Options.Phase, res.Options.Bucket)
	fmt.Print("| bucket |")
	for _, s := range res.Series {
		fmt.Printf(" straggle %s (ms) |", s.Interval)
	}
	fmt.Println()
	fmt.Print("|---|")
	for range res.Series {
		fmt.Print("---|")
	}
	fmt.Println()
	maxLen := 0
	for _, s := range res.Series {
		if len(s.VisibilityMs) > maxLen {
			maxLen = len(s.VisibilityMs)
		}
	}
	for i := 0; i < maxLen; i++ {
		fmt.Printf("| %d |", i)
		for _, s := range res.Series {
			if i < len(s.VisibilityMs) {
				fmt.Printf(" %.1f |", s.VisibilityMs[i])
			} else {
				fmt.Print(" |")
			}
		}
		fmt.Println()
	}
}

func ablations(opts harness.Options, svcOpts harness.ServiceOptions) {
	header("Ablations")
	tree := harness.AblationTree(svcOpts, 60)
	fmt.Printf("pending-set structure (§6): red-black %.0f ops/s vs AVL %.0f ops/s (%.1f%% difference); per-stream runs %.0f ops/s\n\n",
		tree.RedBlack, tree.AVL, (tree.RedBlack-tree.AVL)/tree.AVL*100, tree.Runs)

	fmt.Println("| batching interval | Eunomia throughput (ops/s) |")
	fmt.Println("|---|---|")
	for _, p := range harness.AblationBatching(svcOpts, 60, nil) {
		fmt.Printf("| %s | %.0f |\n", p.Interval, p.Throughput)
	}

	meta := harness.AblationScalarVsVector(opts)
	fmt.Printf("\nmetadata (§4): vector p90 %s @ %.0f ops/s vs scalar p90 %s @ %.0f ops/s (dc0→dc1)\n",
		meta.VectorVisP90.Round(time.Millisecond), meta.VectorThr,
		meta.ScalarVisP90.Round(time.Millisecond), meta.ScalarThr)

	sep := harness.AblationDataSeparation(opts)
	fmt.Printf("data/metadata separation (§5): separated %.0f ops/s (p90 %s) vs combined %.0f ops/s (p90 %s)\n",
		sep.SeparatedThr, sep.SeparatedP90.Round(time.Millisecond),
		sep.CombinedThr, sep.CombinedP90.Round(time.Millisecond))

	fan := harness.AblationPropagationTree(svcOpts, 60, 15)
	fmt.Printf("propagation tree (§5): direct %.0f msgs/s at the replica (%.0f ops/s) vs 15-way tree %.0f msgs/s (%.0f ops/s)\n",
		fan.DirectBatches, fan.DirectThroughput, fan.TreeBatches, fan.TreeThroughput)
}

// wanMatrix renders the emulated-WAN scenario matrix — every system ×
// compression scheme as one TCP process per datacenter behind the default
// shaped topology — followed by the aggregator-tree bytes comparison.
func wanMatrix(opts harness.Options) {
	header("Emulated WAN — bytes on wire and visibility per system × compression")
	res, err := harness.WANBench(harness.WANBenchOptions{
		Duration:     opts.Duration,
		Warmup:       opts.Warmup,
		DCs:          opts.DCs,
		Partitions:   opts.Partitions,
		WorkersPerDC: opts.WorkersPerDC,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "wan matrix: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("topology: %s\n\n", res.Topology)
	fmt.Println("| system | compression | ops/s | wire B/op | ratio | vis p50 | vis p90 | vis p99 |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	for _, c := range res.Cells {
		fmt.Printf("| %s | %s | %.0f | %.0f | %.2f | %s | %s | %s |\n",
			c.System, c.Scheme, c.Throughput, c.BytesPerOp, c.Ratio,
			c.VisP50.Round(time.Millisecond), c.VisP90.Round(time.Millisecond),
			c.VisP99.Round(time.Millisecond))
	}

	header("Emulated WAN — aggregator-tree bytes on wire per compression scheme")
	tree, err := harness.WANTreeBytes(harness.WANTreeOptions{
		ServiceOptions: harness.ServiceOptions{Duration: opts.Duration, Warmup: opts.Warmup},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "wan tree: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("| compression | ordered ops | wire B/op | ratio | reduction vs off |")
	fmt.Println("|---|---|---|---|---|")
	for _, p := range tree.Points {
		fmt.Printf("| %s | %d | %.0f | %.2f | %.1f× |\n",
			p.Scheme, p.Ops, p.BytesPerOp, p.Ratio, p.ReductionVsOff)
	}
}
