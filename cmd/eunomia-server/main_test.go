package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// freePort reserves a loopback port and returns "127.0.0.1:port". The
// listener is closed before use; the tiny reuse race is acceptable for a
// test.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

// buildServer compiles the server binary once per test run.
func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "eunomia-server")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runTwoProcessDemo launches a two-process datacenter pair — one process
// per datacenter, each hosting every role of the given mode — drives a
// causally chained workload in the writer process, and has the watcher
// process verify visibility (and, where promised, causal order) before
// exiting. confirm is the mode's expected watcher verdict line; extra
// flags (e.g. -compress) apply to both processes.
func runTwoProcessDemo(t *testing.T, bin, mode, confirm string, pairs int, extra ...string) {
	t.Helper()
	addr0, addr1 := freePort(t), freePort(t)
	common := append([]string{"-mode", mode, "-dcs", "2", "-partitions", "2", "-replicas", "1", "-stats-interval", "1h"}, extra...)

	writer := exec.Command(bin, append([]string{
		"-role", "dc", "-dc", "0", "-listen", addr0,
		"-route", "dc1=" + addr1,
		"-demo", fmt.Sprintf("write:%d", pairs),
	}, common...)...)
	var writerOut bytes.Buffer
	writer.Stdout = &writerOut
	writer.Stderr = &writerOut
	if err := writer.Start(); err != nil {
		t.Fatal(err)
	}
	var stopOnce sync.Once
	// The exec pipe goroutine writes into writerOut until the process
	// exits; always stop the writer before reading its buffer.
	stopWriter := func() {
		stopOnce.Do(func() {
			_ = writer.Process.Kill()
			_ = writer.Wait()
		})
	}
	defer stopWriter()

	watcher := exec.Command(bin, append([]string{
		"-role", "dc", "-dc", "1", "-listen", addr1,
		"-route", "dc0=" + addr0,
		"-demo", fmt.Sprintf("watch:%d", pairs),
	}, common...)...)
	var watcherOut bytes.Buffer
	watcher.Stdout = &watcherOut
	watcher.Stderr = &watcherOut
	if err := watcher.Start(); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- watcher.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			stopWriter()
			t.Fatalf("watcher failed: %v\nwatcher output:\n%s\nwriter output:\n%s",
				err, watcherOut.String(), writerOut.String())
		}
	case <-time.After(150 * time.Second):
		_ = watcher.Process.Kill()
		<-done
		stopWriter()
		t.Fatalf("watcher did not finish\nwatcher output:\n%s\nwriter output:\n%s",
			watcherOut.String(), writerOut.String())
	}
	stopWriter()
	if !strings.Contains(watcherOut.String(), fmt.Sprintf("%s (%d pairs)", confirm, pairs)) {
		t.Fatalf("watcher did not print %q:\n%s", confirm, watcherOut.String())
	}
	if !strings.Contains(writerOut.String(), fmt.Sprintf("wrote %d causal data/flag pairs", pairs)) {
		t.Fatalf("writer did not confirm workload:\n%s", writerOut.String())
	}
}

// TestTwoProcessDatacenterOverTCP is the end-to-end acceptance check for
// the CLI across the whole comparison matrix: for every -mode, a
// two-process deployment (one OS process per datacenter) must replicate a
// causally chained workload over real TCP.
func TestTwoProcessDatacenterOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-process demo in -short mode")
	}
	bin := buildServer(t)
	for mode, confirm := range map[string]string{
		"eunomia":    "causal chain OK",
		"sequencer":  "causal chain OK",
		"globalstab": "causal chain OK",
		"cure":       "causal chain OK",
		// Eventual consistency promises visibility only; the watcher must
		// not claim to have verified an order.
		"eventual": "visibility OK",
	} {
		t.Run(mode, func(t *testing.T) {
			runTwoProcessDemo(t, bin, mode, confirm, 12)
		})
	}
}

// TestTwoProcessCompressedOverTCP runs the whole comparison matrix with
// every process dialing zstd-compressed connections: the negotiated
// record layout must carry each protocol end to end, so the WAN
// benchmarks' -compress zstd cells measure live systems, not a layout
// that only survives the happy path.
func TestTwoProcessCompressedOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-process demo in -short mode")
	}
	bin := buildServer(t)
	for mode, confirm := range map[string]string{
		"eunomia":    "causal chain OK",
		"sequencer":  "causal chain OK",
		"globalstab": "causal chain OK",
		"cure":       "causal chain OK",
		"eventual":   "visibility OK",
	} {
		t.Run(mode, func(t *testing.T) {
			runTwoProcessDemo(t, bin, mode, confirm, 12, "-compress", "zstd")
		})
	}
}

// TestTwoProcessMixedCompressionOverTCP pairs a snappy-dialing dc0 with
// a plain-dialing dc1 — the runTwoProcessDemo helper applies extras to
// both, so this variant builds the deployment by hand: each side must
// decode the other's announced scheme, the mixed-rollout case a
// compression deploy lives in.
func TestTwoProcessMixedCompressionOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-process demo in -short mode")
	}
	bin := buildServer(t)
	addr0, addr1 := freePort(t), freePort(t)
	common := []string{"-mode", "eunomia", "-dcs", "2", "-partitions", "2", "-replicas", "1", "-stats-interval", "1h"}

	writer := startProc(t, bin, append([]string{
		"-role", "dc", "-dc", "0", "-listen", addr0,
		"-route", "dc1=" + addr1,
		"-compress", "snappy",
		"-demo", "write:12",
	}, common...)...)
	defer writer.kill()
	watcher := startProc(t, bin, append([]string{
		"-role", "dc", "-dc", "1", "-listen", addr1,
		"-route", "dc0=" + addr0,
		"-demo", "watch:12",
	}, common...)...)
	defer watcher.kill()

	done := make(chan error, 1)
	go func() { done <- watcher.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("watcher failed: %v\nwatcher:\n%s\nwriter:\n%s", err, watcher.output(), writer.output())
		}
	case <-time.After(150 * time.Second):
		_ = watcher.cmd.Process.Kill()
		<-done
		t.Fatalf("watcher did not finish\nwatcher:\n%s\nwriter:\n%s", watcher.output(), writer.output())
	}
	if !strings.Contains(watcher.output(), "causal chain OK (12 pairs)") {
		t.Fatalf("watcher did not confirm causal order:\n%s", watcher.output())
	}
}

// TestTwoProcessDemoOverEmulatedWAN shapes the inter-DC link of a live
// two-process deployment (-wan: 30ms±3ms, 0.1% loss, 50Mbps) with
// compressed frames: the causal demo must still pass over the injected
// latency — the end-to-end form of the WAN benchmarks' claim that
// shaping changes timing, never correctness.
func TestTwoProcessDemoOverEmulatedWAN(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-process demo in -short mode")
	}
	runTwoProcessDemo(t, buildServer(t), "eunomia", "causal chain OK", 8,
		"-wan", "dc0-dc1:30ms±3ms,0.1%,50Mbps", "-compress", "zstd")
}

// TestThreeProcessSequencerOverTCP splits dc0 of the sequencer baseline
// by role: the number service runs alone in one process, the partition
// group in another, so every update's sequence number is assigned over a
// real TCP round trip; dc1 watches the causal chain from a third process.
func TestThreeProcessSequencerOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-process demo in -short mode")
	}
	bin := buildServer(t)
	seqAddr, addr0, addr1 := freePort(t), freePort(t), freePort(t)
	common := []string{"-mode", "sequencer", "-dcs", "2", "-partitions", "2", "-stats-interval", "1h"}

	procs := []*exec.Cmd{
		exec.Command(bin, append([]string{
			"-role", "sequencer", "-dc", "0", "-listen", seqAddr,
		}, common...)...),
		exec.Command(bin, append([]string{
			"-role", "partitions", "-dc", "0", "-listen", addr0,
			"-route", "dc0:sequencer=" + seqAddr,
			"-route", "dc1=" + addr1,
			"-demo", "write:8",
		}, common...)...),
	}
	watcher := exec.Command(bin, append([]string{
		"-role", "dc", "-dc", "1", "-listen", addr1,
		// Role-scoped route: in sequencer mode this must cover dc0's
		// receiver (hosted by the partition-group process), or shipping
		// to dc0 would be silently dropped.
		"-route", "dc0:partitions=" + addr0,
		"-demo", "watch:8",
	}, common...)...)

	var outs []*bytes.Buffer
	for _, p := range append(procs, watcher) {
		var buf bytes.Buffer
		p.Stdout = &buf
		p.Stderr = &buf
		outs = append(outs, &buf)
	}
	var killOnce sync.Once
	killAll := func() {
		killOnce.Do(func() {
			for _, p := range procs {
				if p.Process == nil {
					continue // never started
				}
				_ = p.Process.Kill()
				_ = p.Wait()
			}
		})
	}
	defer killAll()
	// dump stops every process first so the exec pipe goroutines are done
	// writing into the buffers before we read them.
	dump := func() string {
		killAll()
		var sb strings.Builder
		for i, buf := range outs {
			fmt.Fprintf(&sb, "--- process %d ---\n%s\n", i, buf.String())
		}
		return sb.String()
	}
	for _, p := range procs {
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
	}
	if err := watcher.Start(); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- watcher.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("watcher failed: %v\n%s", err, dump())
		}
	case <-time.After(150 * time.Second):
		_ = watcher.Process.Kill()
		<-done
		t.Fatalf("watcher did not finish\n%s", dump())
	}
	if !strings.Contains(outs[len(outs)-1].String(), "causal chain OK (8 pairs)") {
		t.Fatalf("watcher did not confirm causal order:\n%s", dump())
	}
}

// proc wraps a started eunomia-server process with its combined output.
type proc struct {
	cmd *exec.Cmd
	out *bytes.Buffer
	mu  sync.Mutex
}

func startProc(t *testing.T, bin string, args ...string) *proc {
	t.Helper()
	p := &proc{cmd: exec.Command(bin, args...), out: &bytes.Buffer{}}
	p.cmd.Stdout = &lockedWriter{p: p}
	p.cmd.Stderr = &lockedWriter{p: p}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return p
}

// lockedWriter serializes the exec pipe goroutines' writes with test-side
// reads of the buffer while the process is still running.
type lockedWriter struct{ p *proc }

func (w *lockedWriter) Write(b []byte) (int, error) {
	w.p.mu.Lock()
	defer w.p.mu.Unlock()
	return w.p.out.Write(b)
}

func (p *proc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.String()
}

func (p *proc) kill() {
	if p.cmd.Process != nil {
		_ = p.cmd.Process.Kill()
		_ = p.cmd.Wait()
	}
}

var appliedRe = regexp.MustCompile(`remote applied=(\d+)`)

// lastApplied parses the newest stats line's remote-applied counter.
func (p *proc) lastApplied() int {
	m := appliedRe.FindAllStringSubmatch(p.output(), -1)
	if len(m) == 0 {
		return 0
	}
	n, _ := strconv.Atoi(m[len(m)-1][1])
	return n
}

// runPartitionKillRestart is the restart-rejoin acceptance matrix: a
// three-process dc pair whose dc0 is split by role (partitions+eunomia /
// receiver), a throttled writer at dc1, and a SIGKILL of the
// partition-role process mid-stream. With durable=true the process
// restarts with the same -data-dir (plus a torn tail scribbled on one
// partition WAL) and must rejoin the release stream at its durable
// watermark — the watcher then proves nothing was lost or misordered.
// With durable=false the restart has no data dir and the receiver
// process must exit nonzero with a wedge diagnostic instead of
// pretending the datacenter is healthy. extra flags (e.g. -compress)
// apply to every process; walArgs (e.g. -wal-sync group) are threaded
// to the durable processes only, so the matrix covers each sync
// policy's crash window.
func runPartitionKillRestart(t *testing.T, bin string, durable bool, extra, walArgs []string) {
	partsAddr, recvAddr, originAddr := freePort(t), freePort(t), freePort(t)
	dir := t.TempDir()
	common := append([]string{"-mode", "eunomia", "-dcs", "2", "-partitions", "2", "-replicas", "1"}, extra...)

	partsArgs := append([]string{
		"-role", "partitions,eunomia", "-dc", "0", "-listen", partsAddr,
		"-route", "dc0:receiver=" + recvAddr,
		"-route", "dc1=" + originAddr,
		"-stats-interval", "50ms",
		"-data-dir", dir,
	}, common...)
	partsArgs = append(partsArgs, walArgs...)
	parts := startProc(t, bin, partsArgs...)
	defer parts.kill()

	recvArgs := append([]string{
		"-role", "receiver", "-dc", "0", "-listen", recvAddr,
		"-route", "dc0:partitions=" + partsAddr,
		"-route", "dc1=" + originAddr,
		"-stats-interval", "1h",
	}, common...)
	if durable {
		recvArgs = append(recvArgs, "-data-dir", dir)
		recvArgs = append(recvArgs, walArgs...)
	}
	recv := startProc(t, bin, recvArgs...)
	defer recv.kill()

	// The kill below must land while the stream is still in flight. The
	// durable variant only needs a modest stream (the watcher waits for
	// every pair anyway); the volatile variant needs a long one — the
	// wedge can only be diagnosed while the receiver still has (or
	// produces) unacknowledged releases, and the wire codec drains an
	// apply backlog fast enough that a short stream can complete between
	// the kill decision (parsed from a 50ms stats cadence) and the
	// signal landing.
	pairs := 150
	if !durable {
		pairs = 2000
	}
	writer := startProc(t, bin, append([]string{
		"-role", "dc", "-dc", "1", "-listen", originAddr,
		"-route", "dc0:partitions=" + partsAddr,
		"-route", "dc0:receiver=" + recvAddr,
		"-stats-interval", "1h",
		"-demo", fmt.Sprintf("write:%d:2", pairs), // ~2ms/pair: a long-lived stream
	}, common...)...)
	defer writer.kill()

	// Kill the partition process mid-stream: after some applies are in
	// (and durably acked, so the window has pruned a prefix) but long
	// before the stream ends.
	deadline := time.Now().Add(60 * time.Second)
	for parts.lastApplied() < 40 {
		if time.Now().After(deadline) {
			t.Fatalf("partition process never applied 40 updates\nparts:\n%s\nrecv:\n%s\nwriter:\n%s",
				parts.output(), recv.output(), writer.output())
		}
		time.Sleep(10 * time.Millisecond)
	}
	parts.kill() // SIGKILL: no flush, no goodbye

	if durable {
		// Torn tail: scribble a partial record onto one partition WAL, as
		// a crash mid-write would. Recovery must truncate and proceed.
		if err := appendRawFile(filepath.Join(dir, "dc0-partition0", "log"), []byte{200, 0, 0, 0, 0xde, 0xad}); err != nil {
			t.Fatal(err)
		}
	}

	restartArgs := append([]string{
		"-role", "partitions,eunomia", "-dc", "0", "-listen", partsAddr,
		"-route", "dc0:receiver=" + recvAddr,
		"-route", "dc1=" + originAddr,
		"-stats-interval", "1h",
		"-demo", fmt.Sprintf("watch:%d", pairs),
	}, common...)
	if durable {
		restartArgs = append(restartArgs, "-data-dir", dir)
		restartArgs = append(restartArgs, walArgs...)
	}
	restarted := startProc(t, bin, restartArgs...)
	defer restarted.kill()

	if durable {
		// The restarted process must recover, rejoin the stream at its
		// durable watermark, and verify the full causal chain.
		done := make(chan error, 1)
		go func() { done <- restarted.cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("restarted watcher failed: %v\nrestarted:\n%s\nrecv:\n%s\nwriter:\n%s",
					err, restarted.output(), recv.output(), writer.output())
			}
		case <-time.After(150 * time.Second):
			t.Fatalf("restarted watcher did not finish\nrestarted:\n%s\nrecv:\n%s\nwriter:\n%s",
				restarted.output(), recv.output(), writer.output())
		}
		if !strings.Contains(restarted.output(), fmt.Sprintf("causal chain OK (%d pairs)", pairs)) {
			t.Fatalf("restarted watcher did not confirm the causal chain:\n%s", restarted.output())
		}
		if !strings.Contains(restarted.output(), "durable state under") {
			t.Fatalf("restarted process did not report recovery:\n%s", restarted.output())
		}
		if strings.Contains(recv.output(), "release stream wedged") {
			t.Fatalf("durable rejoin wedged the stream:\n%s", recv.output())
		}
		return
	}

	// Volatile restart: the retransmitted stream hits a fresh applier
	// with no durable state; the receiver process must diagnose the
	// wedge and exit nonzero rather than report a healthy datacenter.
	done := make(chan error, 1)
	go func() { done <- recv.cmd.Wait() }()
	select {
	case err := <-done:
		exit, ok := err.(*exec.ExitError)
		if !ok || exit.ExitCode() != 1 {
			t.Fatalf("receiver exited %v, want exit code 1\nrecv:\n%s", err, recv.output())
		}
	case <-time.After(150 * time.Second):
		t.Fatalf("receiver never exited on the wedged stream\nrecv:\n%s\nrestarted:\n%s",
			recv.output(), restarted.output())
	}
	if !strings.Contains(recv.output(), "release stream wedged") {
		t.Fatalf("receiver exited without the wedge diagnostic:\n%s", recv.output())
	}
}

func appendRawFile(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// TestPartitionProcessKillRejoinOverTCP kills a partition-role process
// mid-stream and restarts it with the same -data-dir: the release stream
// resumes from the durable watermark with no lost or duplicated applies
// (the causal-order check passes end to end), surviving a torn WAL tail
// from the crash.
func TestPartitionProcessKillRejoinOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-process restart test in -short mode")
	}
	runPartitionKillRestart(t, buildServer(t), true, nil, nil)
}

// TestPartitionProcessKillRejoinCompressedOverTCP is the same crash and
// durable rejoin with every process dialing compressed (-compress zstd)
// connections: the retransmit/rejoin machinery must be byte-layout
// agnostic, and a reconnecting dialer renegotiates its scheme on the
// fresh socket.
func TestPartitionProcessKillRejoinCompressedOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-process restart test in -short mode")
	}
	runPartitionKillRestart(t, buildServer(t), true, []string{"-compress", "zstd"}, nil)
}

// TestPartitionProcessKillRejoinGroupCommitOverTCP runs the same crash
// matrix under -wal-sync group: the group committer's acks are gated on
// fsync completion, so a SIGKILL mid-stream must lose at most the
// in-flight (unacked) group and the rejoin still verifies the full
// causal chain.
func TestPartitionProcessKillRejoinGroupCommitOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-process restart test in -short mode")
	}
	runPartitionKillRestart(t, buildServer(t), true, nil, []string{"-wal-sync", "group"})
}

// TestPartitionProcessKillRejoinDiskStoreOverTCP runs the crash matrix
// with the disk version-store backend and a snapshot threshold small
// enough that the WAL is compacted mid-stream: after compaction the log
// holds marks only, so the restart must recover values from the segment
// files and replay just the WAL suffix — the segments-as-authority
// contract, proven over TCP.
func TestPartitionProcessKillRejoinDiskStoreOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-process restart test in -short mode")
	}
	runPartitionKillRestart(t, buildServer(t), true, nil,
		[]string{"-store", "disk", "-snapshot-threshold", "4096"})
}

// TestPartitionProcessKillNoDataDirWedges is the same crash without a
// data dir: the stream must wedge loudly — the receiver process exits
// nonzero with a diagnostic instead of reporting a clean verdict.
func TestPartitionProcessKillNoDataDirWedges(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-process restart test in -short mode")
	}
	runPartitionKillRestart(t, buildServer(t), false, nil, nil)
}

// aggTreeProcs launches a two-datacenter deployment whose dc0 runs the
// §5 propagation tree multi-process: a partitions+receiver process (the
// writer), two single-endpoint aggregator processes, and a eunomia
// process; dc1 is an all-role watcher. dc0's metadata path is therefore
// partitions → 2 aggregators → Eunomia over real TCP, and the watcher
// proves the causal chain end to end.
type aggTreeProcs struct {
	parts, aggA, aggB, eu, watcher *proc
}

func startAggTree(t *testing.T, bin string, partitions, pairs, pauseMs int) aggTreeProcs {
	t.Helper()
	partsAddr, aggAAddr, aggBAddr, euAddr, dc1Addr := freePort(t), freePort(t), freePort(t), freePort(t), freePort(t)
	common := []string{
		"-mode", "eunomia", "-dcs", "2", "-partitions", strconv.Itoa(partitions),
		"-replicas", "1", "-agg-fanin", "2", "-batch-interval", "5ms",
	}
	var pr aggTreeProcs
	pr.parts = startProc(t, bin, append([]string{
		"-role", "partitions,receiver", "-dc", "0", "-listen", partsAddr,
		"-route", "dc0:aggregator0=" + aggAAddr,
		"-route", "dc0:aggregator1=" + aggBAddr,
		"-route", "dc1=" + dc1Addr,
		"-stats-interval", "1h",
		"-demo", fmt.Sprintf("write:%d:%d", pairs, pauseMs),
	}, common...)...)
	pr.aggA = startProc(t, bin, append([]string{
		"-role", "aggregator", "-agg-index", "0", "-dc", "0", "-listen", aggAAddr,
		"-route", "dc0:eunomia=" + euAddr,
		"-stats-interval", "50ms",
	}, common...)...)
	pr.aggB = startProc(t, bin, append([]string{
		"-role", "aggregator", "-agg-index", "1", "-dc", "0", "-listen", aggBAddr,
		"-route", "dc0:eunomia=" + euAddr,
		"-stats-interval", "50ms",
	}, common...)...)
	pr.eu = startProc(t, bin, append([]string{
		"-role", "eunomia", "-dc", "0", "-listen", euAddr,
		"-route", "dc1=" + dc1Addr,
		"-stats-interval", "1h",
	}, common...)...)
	pr.watcher = startProc(t, bin, append([]string{
		"-role", "dc", "-dc", "1", "-listen", dc1Addr,
		"-route", "dc0:partitions=" + partsAddr,
		"-route", "dc0:receiver=" + partsAddr,
		"-stats-interval", "1h",
		"-demo", fmt.Sprintf("watch:%d", pairs),
	}, common...)...)
	return pr
}

func (pr aggTreeProcs) all() []*proc {
	return []*proc{pr.parts, pr.aggA, pr.aggB, pr.eu, pr.watcher}
}

func (pr aggTreeProcs) dump() string {
	var sb strings.Builder
	for i, p := range pr.all() {
		fmt.Fprintf(&sb, "--- process %d ---\n%s\n", i, p.output())
	}
	return sb.String()
}

func (pr aggTreeProcs) killAll() {
	for _, p := range pr.all() {
		p.kill()
	}
}

// awaitWatcher waits for the watcher process to confirm the causal chain.
func awaitWatcher(t *testing.T, pr aggTreeProcs, pairs int) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- pr.watcher.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("watcher failed: %v\n%s", err, pr.dump())
		}
	case <-time.After(150 * time.Second):
		_ = pr.watcher.cmd.Process.Kill()
		<-done
		t.Fatalf("watcher did not finish\n%s", pr.dump())
	}
	if !strings.Contains(pr.watcher.output(), fmt.Sprintf("causal chain OK (%d pairs)", pairs)) {
		t.Fatalf("watcher did not confirm causal order:\n%s", pr.dump())
	}
}

var aggOutRe = regexp.MustCompile(`agg in=(\d+) out=(\d+)`)

// aggForwarded parses an aggregator process's newest stats line.
func aggForwarded(p *proc) int {
	m := aggOutRe.FindAllStringSubmatch(p.output(), -1)
	if len(m) == 0 {
		return 0
	}
	n, _ := strconv.Atoi(m[len(m)-1][2])
	return n
}

// TestAggregatorTreeDatacenterOverTCP is the wide-datacenter acceptance
// check: a 128-partition dc0 runs multi-process as partitions → two
// aggregator processes → Eunomia over real TCP, replicates a causally
// chained workload to dc1, and both aggregators actually carry merged
// frames (no hidden flat path).
func TestAggregatorTreeDatacenterOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-process demo in -short mode")
	}
	pr := startAggTree(t, buildServer(t), 128, 12, 0)
	defer pr.killAll()
	awaitWatcher(t, pr, 12)
	// Both aggregators must have merged and forwarded frames (no hidden
	// flat path). Their stats lines print on a 50ms cadence, so give the
	// counters a moment to surface.
	deadline := time.Now().Add(10 * time.Second)
	for aggForwarded(pr.aggA) == 0 || aggForwarded(pr.aggB) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("an aggregator forwarded nothing — the tree was bypassed\n%s", pr.dump())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestAggregatorKillFailoverOverTCP kills one aggregator process
// mid-stream: every partition dual-homes at the fan-in pair, so the
// surviving path must carry the rest of the stream with no gap or
// duplicate at Eunomia — the watcher's causal-order verdict is exactly
// that prefix property, end to end.
func TestAggregatorKillFailoverOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-process restart test in -short mode")
	}
	pairs := 150
	pr := startAggTree(t, buildServer(t), 16, pairs, 5)
	defer pr.killAll()

	// Kill aggregator A once it has demonstrably merged and forwarded
	// part of the stream, while most of the stream is still unwritten
	// (the writer paces at ~5ms/pair).
	deadline := time.Now().Add(60 * time.Second)
	for aggForwarded(pr.aggA) < 20 {
		if time.Now().After(deadline) {
			t.Fatalf("aggregator A never forwarded 20 frames\n%s", pr.dump())
		}
		time.Sleep(10 * time.Millisecond)
	}
	pr.aggA.kill() // SIGKILL: no flush, no goodbye
	awaitWatcher(t, pr, pairs)
}

// TestRejectsContradictoryFlags pins the CLI's fail-fast validation: a
// misconfigured process must die with a one-line diagnostic instead of
// silently ignoring topology flags or booting half a deployment.
func TestRejectsContradictoryFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping process test in -short mode")
	}
	bin := buildServer(t)
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"aggregator-role-needs-fanin",
			[]string{"-mode", "eunomia", "-role", "aggregator"},
			"needs -agg-fanin"},
		{"fanin-needs-eunomia",
			[]string{"-mode", "sequencer", "-role", "dc", "-agg-fanin", "2"},
			"-agg-fanin is supported only by -mode eunomia"},
		{"fanin-contradicts-orderer",
			[]string{"-mode", "eunomia", "-role", "orderer", "-agg-fanin", "2"},
			"-agg-fanin contradicts -role orderer"},
		{"agg-flags-need-aggregator-role",
			[]string{"-mode", "eunomia", "-role", "dc", "-agg-parent", "aggregator2"},
			"apply only to -mode eunomia -role aggregator"},
		{"bad-agg-index",
			[]string{"-mode", "eunomia", "-role", "aggregator", "-agg-fanin", "2", "-agg-index", "zero"},
			"bad -agg-index"},
		{"duplicate-agg-index",
			[]string{"-mode", "eunomia", "-role", "aggregator", "-agg-fanin", "2", "-agg-index", "0,0"},
			"listed twice"},
		{"bad-agg-parent",
			[]string{"-mode", "eunomia", "-role", "aggregator", "-agg-fanin", "2", "-agg-parent", "orderer3"},
			"bad -agg-parent"},
		{"mixed-agg-parents",
			[]string{"-mode", "eunomia", "-role", "aggregator", "-agg-fanin", "2", "-agg-parent", "aggregator2,eunomia0"},
			"different acknowledgement semantics"},
		{"aseq-needs-sequencer",
			[]string{"-mode", "eunomia", "-role", "dc", "-aseq"},
			"-aseq is supported only by -mode sequencer"},
		{"unknown-role",
			[]string{"-mode", "eunomia", "-role", "bogus"},
			"unknown role"},
		{"frontend-addr-needs-eunomia",
			[]string{"-mode", "sequencer", "-role", "dc", "-frontend-addr", "127.0.0.1:0"},
			"-frontend-addr is supported only by -mode eunomia"},
		{"frontend-addr-needs-frontend-role",
			[]string{"-mode", "eunomia", "-role", "receiver", "-frontend-addr", "127.0.0.1:0"},
			"needs a role that includes frontend"},
		{"frontend-flags-need-addr",
			[]string{"-mode", "eunomia", "-role", "dc", "-frontend-index", "1"},
			"apply only with -frontend-addr"},
		{"session-needs-eunomia",
			[]string{"-mode", "eventual", "-role", "dc", "-session", "scalar"},
			"-session is supported only by -mode eunomia"},
		{"unknown-session",
			[]string{"-mode", "eunomia", "-role", "dc", "-session", "bogus"},
			"unknown -session"},
		{"partitions-above-stream-ids",
			[]string{"-mode", "eunomia", "-role", "orderer", "-partitions", "257"},
			"exceed the hybrid clock's 256 stream ids"},
		{"unknown-mode",
			[]string{"-mode", "bogus", "-role", "dc"},
			"unknown -mode"},
		{"unknown-compress",
			[]string{"-mode", "eunomia", "-role", "dc", "-compress", "lz4"},
			"unknown scheme"},
		{"wan-seed-needs-wan",
			[]string{"-mode", "eunomia", "-role", "dc", "-wan-seed", "7"},
			"-wan-seed applies only with -wan"},
		{"bad-wan-spec",
			[]string{"-mode", "eunomia", "-role", "dc", "-wan", "dc0-dc1:fast"},
			"link spec"},
		{"wal-sync-always-retired",
			[]string{"-mode", "eunomia", "-role", "dc", "-wal-sync", "always"},
			"want flush or group"},
		{"unknown-store",
			[]string{"-mode", "eunomia", "-role", "dc", "-store", "rocksdb"},
			"unknown -store"},
		{"disk-store-needs-data-dir",
			[]string{"-mode", "eunomia", "-role", "dc", "-store", "disk"},
			"-store disk requires -mode eunomia and -data-dir"},
		{"snapshot-threshold-needs-data-dir",
			[]string{"-mode", "eunomia", "-role", "dc", "-snapshot-threshold", "1024"},
			"-snapshot-threshold requires -mode eunomia and -data-dir"},
		{"orderer-rejects-store-flags",
			[]string{"-mode", "eunomia", "-role", "orderer", "-store", "disk", "-snapshot-threshold", "5"},
			"-store disk requires -mode eunomia and -data-dir"},
		{"orderer-rejects-data-dir",
			[]string{"-mode", "eunomia", "-role", "orderer", "-data-dir", "/tmp/unused"},
			"contradict -role orderer"},
		{"snapshot-threshold-must-be-positive",
			[]string{"-mode", "eunomia", "-role", "dc", "-data-dir", "/tmp/unused", "-snapshot-threshold", "0"},
			"-snapshot-threshold must be positive"},
		{"bootstrap-needs-eunomia",
			[]string{"-mode", "eventual", "-role", "dc", "-dcs", "2", "-bootstrap-from", "1"},
			"-bootstrap-from is supported only by -mode eunomia"},
		{"bootstrap-bad-donor-id",
			[]string{"-mode", "eunomia", "-role", "dc", "-dcs", "2", "-bootstrap-from", "5"},
			"want datacenter ids in [0,2)"},
		{"bootstrap-from-self",
			[]string{"-mode", "eunomia", "-role", "dc", "-dc", "0", "-dcs", "2", "-bootstrap-from", "0"},
			"cannot bootstrap from itself"},
		{"bootstrap-needs-partitions-role",
			[]string{"-mode", "eunomia", "-role", "receiver", "-dc", "0", "-dcs", "2", "-bootstrap-from", "1"},
			"needs a role that includes partitions"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(bin, append([]string{"-listen", "127.0.0.1:0"}, tc.args...)...)
			out, err := cmd.CombinedOutput()
			exit, ok := err.(*exec.ExitError)
			if !ok || exit.ExitCode() == 0 {
				t.Fatalf("process exited %v, want nonzero\n%s", err, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Fatalf("diagnostic missing %q:\n%s", tc.want, out)
			}
		})
	}
}

// TestMetricsEndpoint boots a single-datacenter process with
// -metrics-addr and checks the Prometheus text endpoint exposes fabric
// and node samples.
func TestMetricsEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping process test in -short mode")
	}
	bin := buildServer(t)
	addr, maddr, writerAddr := freePort(t), freePort(t), freePort(t)
	common := []string{"-mode", "eunomia", "-role", "dc", "-dcs", "2", "-partitions", "2",
		"-agg-fanin", "1", "-compress", "snappy", "-stats-interval", "1h"}
	p := startProc(t, bin, append([]string{
		"-dc", "1", "-listen", addr, "-route", "dc0=" + writerAddr, "-metrics-addr", maddr,
	}, common...)...)
	defer p.kill()
	// A writer at dc0 gives dc1's receiver an origin to trail.
	writer := startProc(t, bin, append([]string{
		"-dc", "0", "-listen", writerAddr, "-route", "dc1=" + addr, "-demo", "write:3",
	}, common...)...)
	defer writer.kill()

	// Stabilization lag: the leader's stable time, and SiteTime per
	// origin once something from it has been applied. The two appear
	// independently — the writer's updates can be applied here before
	// this process's first aggregator flush sets its stable time — so
	// wait for both.
	const stableLag = "eunomia_stable_lag_seconds"
	const siteLag = `eunomia_receiver_site_lag_seconds{origin="0"}`
	body := scrapeMetrics(t, p, maddr)
	for deadline := time.Now().Add(20 * time.Second); !strings.Contains(body, siteLag) || !strings.Contains(body, stableLag); {
		if time.Now().After(deadline) {
			t.Fatalf("metrics output never showed %q and %q:\n%s\nwriter:\n%s", stableLag, siteLag, body, writer.output())
		}
		time.Sleep(50 * time.Millisecond)
		body = scrapeMetrics(t, p, maddr)
	}
	for _, want := range []string{
		stableLag, siteLag, "eunomia_marks_refused_total",
		"eunomia_fabric_sent_total", "eunomia_local_updates_total", "eunomia_release_wedged 0",
		// Compression byte accounting: pre/post totals per direction and
		// the endpoint's ratio summary under its dialing scheme.
		`eunomia_transport_bytes_pre_compress_total{dir="tx"}`,
		`eunomia_transport_bytes_post_compress_total{dir="tx"}`,
		`eunomia_transport_bytes_pre_compress_total{dir="rx"}`,
		`eunomia_transport_bytes_post_compress_total{dir="rx"}`,
		`eunomia_transport_compress_ratio{scheme="snappy"}`,
		// Codec latency histograms: cumulative buckets, sum, count, codec label.
		`eunomia_codec_encode_seconds_bucket{codec="wire",le="+Inf"}`,
		`eunomia_codec_decode_seconds_count{codec="wire"}`,
		`eunomia_frame_flush_seconds_sum{codec="wire"}`,
		// Propagation-tree fan-in counters and flush histogram, labeled
		// by endpoint and tree level (-agg-fanin 1 hosts aggregator0).
		`eunomia_aggregator_batches_in_total{endpoint="aggregator0",level="1"}`,
		`eunomia_aggregator_batches_out_total{endpoint="aggregator0",level="1"}`,
		`eunomia_aggregator_flush_seconds_bucket{endpoint="aggregator0",level="1",le="+Inf"}`,
		`eunomia_aggregator_flush_seconds_count{endpoint="aggregator0",level="1"}`,
		// Front door: the dc role hosts a frontend, so its client-facing
		// series export even before any client connects.
		`eunomia_frontend_ops_total{op="get"}`,
		`eunomia_frontend_ops_total{op="put"}`,
		"eunomia_frontend_waits_total",
		"eunomia_frontend_wait_timeouts_total",
		// The version store: live bytes labeled by backend, and the
		// snapshot-shipping counters (zero here — no -bootstrap-from).
		`eunomia_store_bytes{backend="mem"}`,
		"eunomia_snapshot_ship_bytes_total",
		"eunomia_snapshot_ship_chunks_total",
		"eunomia_snapshot_ship_seconds_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, body)
		}
	}
}

// scrapeMetrics polls the process's Prometheus endpoint until it serves.
func scrapeMetrics(t *testing.T, p *proc, maddr string) string {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get("http://" + maddr + "/metrics")
		if err == nil {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			return string(b)
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics endpoint never came up: %v\n%s", err, p.output())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestMetricsEndpointWALGroupCommit boots a durable split-role dc0
// under -wal-sync group and checks each process exports the WAL
// durability series for the components it hosts: the fsync latency
// histogram and the group-commit commit/record counters, labeled by
// the store's component (partition + applier on the partition-role
// process, receiver on the receiver process).
func TestMetricsEndpointWALGroupCommit(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping process test in -short mode")
	}
	bin := buildServer(t)
	partsAddr, recvAddr, originAddr := freePort(t), freePort(t), freePort(t)
	partsMetrics, recvMetrics := freePort(t), freePort(t)
	dir := t.TempDir()
	common := []string{"-mode", "eunomia", "-dcs", "2", "-partitions", "2",
		"-replicas", "1", "-stats-interval", "1h",
		"-data-dir", dir, "-wal-sync", "group"}

	parts := startProc(t, bin, append([]string{
		"-role", "partitions,eunomia", "-dc", "0", "-listen", partsAddr,
		"-route", "dc0:receiver=" + recvAddr,
		"-route", "dc1=" + originAddr,
		"-metrics-addr", partsMetrics,
	}, common...)...)
	defer parts.kill()
	recv := startProc(t, bin, append([]string{
		"-role", "receiver", "-dc", "0", "-listen", recvAddr,
		"-route", "dc0:partitions=" + partsAddr,
		"-route", "dc1=" + originAddr,
		"-metrics-addr", recvMetrics,
	}, common...)...)
	defer recv.kill()

	body := scrapeMetrics(t, parts, partsMetrics)
	for _, want := range []string{
		`eunomia_wal_group_commits_total{component="partition"}`,
		`eunomia_wal_group_records_total{component="partition"}`,
		`eunomia_wal_fsync_seconds_bucket{component="partition",le="+Inf"}`,
		`eunomia_wal_fsync_seconds_count{component="applier"}`,
		`eunomia_wal_group_commits_total{component="applier"}`,
		`eunomia_wal_compact_errors_total{component="partition"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("partition-process metrics missing %q:\n%s", want, body)
		}
	}
	body = scrapeMetrics(t, recv, recvMetrics)
	for _, want := range []string{
		`eunomia_wal_group_commits_total{component="receiver"}`,
		`eunomia_wal_group_records_total{component="receiver"}`,
		`eunomia_wal_fsync_seconds_count{component="receiver"}`,
		`eunomia_wal_compact_errors_total{component="receiver"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("receiver-process metrics missing %q:\n%s", want, body)
		}
	}
}
