// Command perfbench drives the eunomia module through its public entry
// points and prints one JSON result line. See README.md for the
// workloads, the metrics and how to run it.
//
//	perfbench -workload geo3-sim -seed 1 -seconds 10 -trace 0 -work DIR [-server BIN]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds int
	work    string // scratch directory inside the checkout
	server  string // eunomia-server binary (tcp2-http)
	tr      *tracer
}

// e2eMetrics are the gated end-to-end metrics, reported by every
// workload. Each workload gives each name its own concrete meaning; see
// README.md.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"local_p50_ms", "ms"},
	{"visible_p75_ms", "ms"},
	{"visible_p90_ms", "ms"},
	{"ops_s", "1/s"},
}

// layerMetrics are the per-layer metrics of the traced run. A workload
// that does not exercise a layer reports 0 with 0 samples.
var layerMetrics = []struct{ name, unit string }{
	{"frontend.get_service_ms_p50", "ms"},
	{"frontend.put_service_ms_p50", "ms"},
	{"frontend.waits_per_kop", "1/kop"},
	{"frontend.wait_ms_p50", "ms"},
	{"frontend.wait_timeouts", "count"},
	{"http.overhead_ms_mean", "ms"},
	{"fabric.roundtrip_ms_p50", "ms"},
	{"partition.read_us_p50", "us"},
	{"partition.update_us_p50", "us"},
	{"partition.payload_waits_per_kremote", "1/kop"},
	{"kvstore.get_ns_p50", "ns"},
	{"kvstore.bytes_per_user_byte", "ratio"},
	{"eunomia.ops_per_batch", "ops"},
	{"eunomia.ops_per_round", "ops"},
	{"eunomia.pending_p50", "ops"},
	{"eunomia.stable_lag_ms_p50", "ms"},
	{"eunomia.duplicates_per_mop", "1/Mop"},
	{"orderer.submit_us_p50", "us"},
	{"orderer.submit_blocked_pct", "%"},
	{"eunomia.emit_ops_per_call", "ops"},
	{"eunomia.emit_lag_ms_p50", "ms"},
	{"ship.payload_lag_ms_p50", "ms"},
	{"receiver.site_lag_ms_p50", "ms"},
	{"receiver.queue_len_p50", "ops"},
	{"transport.frames_per_op", "1/op"},
	{"transport.bytes_per_op", "B/op"},
	{"compress.ratio", "ratio"},
	{"wire.encode_us_mean", "us"},
	{"transport.flush_us_mean", "us"},
	{"transport.retransmits", "count"},
	{"proc.cpu_ms_per_kop", "ms/kop"},
	{"proc.rss_peak_mb", "MB"},
	{"runtime.gc_per_kop", "1/kop"},
	{"proc.idle_cpu_pct", "%"},
}

// figure is one reported number with the sample count behind it.
type figure struct {
	value float64
	n     int
}

// result is what a workload measured.
type result struct {
	tally
	setups []float64          // seconds, one per repeated set-up
	e2e    map[string]float64 // gated end-to-end metrics except setup_s
	named  map[string]figure  // per-operation figures for the report
	layers map[string]figure  // per-layer metrics (traced run only)
	notes  []string
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, named: map[string]figure{}, layers: map[string]figure{}}
}

// fig stores a percentile of s under name in m, with its sample count.
func fig(m map[string]figure, name string, s *samples, p float64) {
	m[name] = figure{s.pct(p), s.n()}
}

var workloads = map[string]func(runConfig) (*result, error){
	"geo3-sim":    runGeo3,
	"orderer-sat": runOrdererSat,
	"tcp2-http":   runTCP2,
}

// cleanups run on every exit path, including the watchdog's.
var (
	cleanupMu sync.Mutex
	cleanups  []func()
)

func atExit(f func()) {
	cleanupMu.Lock()
	cleanups = append(cleanups, f)
	cleanupMu.Unlock()
}

func runCleanups() {
	cleanupMu.Lock()
	fs := cleanups
	cleanups = nil
	cleanupMu.Unlock()
	for i := len(fs) - 1; i >= 0; i-- {
		fs[i]()
	}
}

func die(format string, args ...any) {
	runCleanups()
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		workload = flag.String("workload", "", "geo3-sim, orderer-sat or tcp2-http")
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 10, "measured window length")
		trace    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		work     = flag.String("work", ".bench_build/work", "scratch directory")
		server   = flag.String("server", "", "eunomia-server binary (tcp2-http)")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		die("unknown -workload %q", *workload)
	}
	if *seconds < 1 {
		die("-seconds must be at least 1")
	}
	// Set-up, drain and checks take a small multiple of the window; a
	// run far past that is stuck, and stops with its servers.
	limit := time.Minute + 4*time.Duration(*seconds)*time.Second
	time.AfterFunc(limit, func() { die("run exceeded %v", limit) })
	// A caller that gives up still gets the servers stopped.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() { die("stopped by %v", <-sigs) }()
	if err := os.MkdirAll(*work, 0o755); err != nil {
		die("%v", err)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, work: *work, server: *server}
	if *server != "" {
		// Servers run in their data directories; resolve the path first.
		abs, err := filepath.Abs(*server)
		if err != nil {
			die("%v", err)
		}
		cfg.server = abs
	}
	if *trace == 1 {
		cfg.tr = newTracer()
	}
	res, err := run(cfg)
	runCleanups()
	if err != nil {
		die("%s: %v", *workload, err)
	}
	res.e2e["setup_s"] = median(res.setups)
	report(os.Stdout, *workload, cfg, res)

	lastPath := filepath.Join(*work, "last-e2e-"+*workload+".json")
	out := map[string]any{
		"correct":   res.wrong == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
	}
	metrics := map[string]map[string]any{}
	if cfg.tr == nil {
		for _, m := range e2eMetrics {
			metrics[m.name] = map[string]any{"value": res.e2e[m.name], "unit": m.unit}
		}
		// Kept for the traced run's overhead lines; failing to save it
		// only loses that comparison.
		if b, err := json.Marshal(res.e2e); err == nil {
			_ = os.WriteFile(lastPath, b, 0o644)
		}
	} else {
		overhead(os.Stdout, lastPath, res)
		path := filepath.Join(*work, fmt.Sprintf("trace-%s-seed%d.jsonl", *workload, *seed))
		if err := cfg.tr.write(path); err != nil {
			die("writing spans: %v", err)
		}
		fmt.Printf("# spans: %d written to %s\n", len(cfg.tr.spans), path)
		selfReport(os.Stdout, cfg.tr)
		for _, m := range layerMetrics {
			metrics[m.name] = map[string]any{"value": res.layers[m.name].value, "unit": m.unit}
		}
	}
	out["metrics"] = metrics
	b, err := json.Marshal(out)
	if err != nil {
		die("%v", err)
	}
	fmt.Println(string(b))
}

// report prints the human-readable lines that precede the JSON result.
func report(w *os.File, workload string, cfg runConfig, r *result) {
	mode := "untraced"
	if cfg.tr != nil {
		mode = "traced"
	}
	fmt.Fprintf(w, "# %s seed=%d seconds=%d (%s)\n", workload, cfg.seed, cfg.seconds, mode)
	fmt.Fprintf(w, "# setup_s runs: %s\n", fmtList(r.setups))
	for _, m := range e2eMetrics {
		fmt.Fprintf(w, "# e2e %-16s %12.4f %s\n", m.name, r.e2e[m.name], m.unit)
	}
	for _, name := range sortedKeys(r.named) {
		f := r.named[name]
		fmt.Fprintf(w, "# op  %-24s %12.4f %-3s n=%d\n", name, f.value, unitOf(name), f.n)
	}
	fmt.Fprintf(w, "# attempted=%d failed=%d (%.4f%%) wrong-output=%d\n",
		r.attempted, r.failed, 100*failureShare(r.attempted, r.failed), r.wrong)
	for _, k := range sortedKeys(r.reasons) {
		fmt.Fprintf(w, "#   failed %-34s %d\n", k, r.reasons[k])
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# note: %s\n", n)
	}
	if cfg.tr != nil {
		for _, m := range layerMetrics {
			f := r.layers[m.name]
			fmt.Fprintf(w, "# layer %-38s %12.4f %-6s n=%d\n", m.name, f.value, m.unit, f.n)
		}
	}
}

// overhead prints traced minus untraced for every end-to-end metric,
// against the last untraced run of the same workload in this work
// directory.
func overhead(w *os.File, lastPath string, r *result) {
	b, err := os.ReadFile(lastPath)
	if err != nil {
		fmt.Fprintf(w, "# tracing overhead: no untraced run recorded yet (%s)\n", lastPath)
		return
	}
	var last map[string]float64
	if err := json.Unmarshal(b, &last); err != nil {
		fmt.Fprintf(w, "# tracing overhead: %v\n", err)
		return
	}
	for _, m := range e2eMetrics {
		t, u := r.e2e[m.name], last[m.name]
		fmt.Fprintf(w, "# overhead %-16s traced %.4f - untraced %.4f = %+.4f %s (%+.1f%%)\n",
			m.name, t, u, t-u, m.unit, 100*ratio(t-u, u))
	}
}

// selfReport prints each layer's self time and span count.
func selfReport(w *os.File, tr *tracer) {
	self := selfTimes(tr.spans)
	count := map[string]int{}
	var total time.Duration
	for _, s := range tr.spans {
		count[s.Layer]++
	}
	for _, d := range self {
		total += d
	}
	for _, l := range sortedKeys(self) {
		fmt.Fprintf(w, "# self %-28s %10.2f ms %5.1f%%  spans=%d\n",
			l, float64(self[l])/1e6, 100*ratio(float64(self[l]), float64(total)), count[l])
	}
}

// unitOf reads a report figure's unit off its name's suffix.
func unitOf(name string) string {
	for _, u := range [...][2]string{{"_ms", "ms"}, {"_us", "us"}, {"_s", "1/s"}, {"_pct", "%"}} {
		if strings.HasSuffix(name, u[0]) {
			return u[1]
		}
	}
	return ""
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}
