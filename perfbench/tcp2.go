package main

// tcp2-http: two eunomia-server -role dc processes on loopback with
// snappy frame compression, loaded open loop over HTTP through their
// front doors with a write-heavy, Zipf-keyed mix of 1-KiB values. The
// servers run without -data-dir: with a WAL, a put that waits on an
// fsync for longer than the propagation period can be lost (README.md,
// "Choices that keep every operation successful").

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	tcpDCs    = 2
	tcpParts  = 8
	tcpKeys   = 1000
	tcpValue  = 1024
	tcpSetups = 15
	tcpWait   = "250ms"
	// tcpBatch is the servers' -batch-interval, also their heartbeat
	// threshold: a put descheduled between taking its timestamp and
	// reaching the Eunomia client for longer than this can be
	// heartbeaten past and dropped as a duplicate (defect a).
	tcpBatch = "20ms"
	// tcpScrapeEvery is the traced run's /metrics sampling cadence.
	tcpScrapeEvery = 250 * time.Millisecond
)

var tcpMix = mix{rate: 800, migrate: 0.02, getShare: 50.0 / 95, sessions: 16, dcs: tcpDCs, migrateWorker: true}

const sessionHeader = "X-Causal-Session"

// server is one eunomia-server process.
type server struct {
	cmd     *exec.Cmd
	front   string // http://host:port
	metrics string
	log     string // the server's stdout and stderr
	done    chan struct{}
	gcLines atomic.Int64
}

// Listen ports come from below the kernel's ephemeral range (32768 and
// up), so no outgoing connection can take one between the probe here
// and the server's own bind.
const portLow, portHigh = 20000, 32000

var nextPort = portLow + os.Getpid()%(portHigh-portLow)

// freePort returns a loopback address no listener holds.
func freePort() (string, error) {
	for range portHigh - portLow {
		nextPort++
		if nextPort >= portHigh {
			nextPort = portLow
		}
		addr := fmt.Sprintf("127.0.0.1:%d", nextPort)
		if ln, err := net.Listen("tcp", addr); err == nil {
			ln.Close()
			return addr, nil
		}
	}
	return "", fmt.Errorf("no free port in %d-%d", portLow, portHigh)
}

// startDCs launches both datacenters, running in dir, where their logs
// go. With gctrace set, each server's garbage collections are counted
// from its stderr.
func startDCs(bin, dir string, gctrace bool) ([]*server, error) {
	if bin == "" {
		return nil, fmt.Errorf("tcp2-http needs -server")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var fab, front, met [tcpDCs]string
	for i := 0; i < tcpDCs; i++ {
		var err error
		for _, p := range []*string{&fab[i], &front[i], &met[i]} {
			if *p, err = freePort(); err != nil {
				return nil, err
			}
		}
	}
	var out []*server
	fail := func(err error) ([]*server, error) {
		stopDCs(out)
		return nil, err
	}
	for i := 0; i < tcpDCs; i++ {
		args := []string{
			"-role", "dc", "-dc", strconv.Itoa(i), "-dcs", strconv.Itoa(tcpDCs),
			"-partitions", strconv.Itoa(tcpParts), "-listen", fab[i],
			"-compress", "snappy",
			"-frontend-addr", front[i], "-frontend-wait", tcpWait, "-batch-interval", tcpBatch,
			"-metrics-addr", met[i], "-stats-interval", "1h",
		}
		for j := 0; j < tcpDCs; j++ {
			if j != i {
				args = append(args, "-route", fmt.Sprintf("dc%d=%s", j, fab[j]))
			}
		}
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir
		cmd.Env = os.Environ()
		if gctrace {
			cmd.Env = append(cmd.Env, "GODEBUG=gctrace=1")
		}
		pipe, err := cmd.StderrPipe()
		if err != nil {
			return fail(err)
		}
		logf, err := os.Create(filepath.Join(dir, fmt.Sprintf("dc%d.log", i)))
		if err != nil {
			return fail(err)
		}
		cmd.Stdout = logf
		if err := cmd.Start(); err != nil {
			logf.Close()
			return fail(err)
		}
		s := &server{cmd: cmd, front: "http://" + front[i], metrics: "http://" + met[i] + "/metrics",
			log: logf.Name(), done: make(chan struct{})}
		go func() {
			sc := bufio.NewScanner(pipe)
			for sc.Scan() {
				line := sc.Text()
				if strings.HasPrefix(line, "gc ") {
					s.gcLines.Add(1)
				}
				fmt.Fprintln(logf, line)
			}
			_ = cmd.Wait() // the exit status is not a result; stopDCs kills on purpose
			logf.Close()
			close(s.done)
		}()
		out = append(out, s)
	}
	return out, nil
}

// stopDCs terminates the servers and waits for them to exit.
func stopDCs(ss []*server) {
	for _, s := range ss {
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, s := range ss {
		select {
		case <-s.done:
		case <-time.After(5 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.done
		}
	}
}

// waitHealthy polls /healthz every millisecond until every server
// answers 200, or a server exits.
func waitHealthy(ss []*server, c *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for _, s := range ss {
		for {
			resp, err := c.Get(s.front + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			select {
			case <-s.done:
				out, _ := os.ReadFile(s.log) // best effort: the error says what we know
				return fmt.Errorf("eunomia-server exited during start-up: %s", lastLines(out, 5))
			default:
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s not healthy after 30s", s.front)
			}
			waitUntil(time.Now().Add(time.Millisecond))
		}
	}
	return nil
}

// lastLines returns the last n lines of b.
func lastLines(b []byte, n int) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return strings.Join(lines[max(0, len(lines)-n):], "\n")
}

// httpClient is one worker's client: one keep-alive connection per
// server.
func httpClient() *http.Client {
	return &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// kvResult is one front-door reply.
type kvResult struct {
	status int
	token  string
	body   []byte
}

func doKV(c *http.Client, method, base, key, token string, body []byte) (kvResult, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, base+"/kv/"+key, rd)
	if err != nil {
		return kvResult{}, err
	}
	if token != "" {
		req.Header.Set(sessionHeader, token)
	}
	resp, err := c.Do(req)
	if err != nil {
		return kvResult{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return kvResult{}, err
	}
	return kvResult{status: resp.StatusCode, token: resp.Header.Get(sessionHeader), body: b}, nil
}

// httpFailure names a failed front-door reply.
func httpFailure(r kvResult, err error) string {
	if err != nil {
		return "transport error"
	}
	switch r.status {
	case http.StatusServiceUnavailable:
		return "503 visibility wait timeout"
	case http.StatusGatewayTimeout:
		return "504 partition round trip timeout"
	}
	return fmt.Sprintf("HTTP %d", r.status)
}

// httpDoor calls the servers' HTTP front doors, worker w over its own
// client.
type httpDoor struct {
	clients []*http.Client
	ss      []*server
}

// get succeeds on a 200 or a 404; a 404 is a read that found nothing,
// which the read and convergence checks count on their own.
func (d httpDoor) get(w, dc int, tok, key string) reply {
	r, err := doKV(d.clients[w], http.MethodGet, d.ss[dc].front, key, tok, nil)
	if err != nil || (r.status != http.StatusOK && r.status != http.StatusNotFound) {
		return reply{fail: httpFailure(r, err)}
	}
	return reply{found: r.status == http.StatusOK, value: r.body, token: r.token}
}

func (d httpDoor) put(w, dc int, tok, key string, val []byte) reply {
	r, err := doKV(d.clients[w], http.MethodPut, d.ss[dc].front, key, tok, val)
	if err != nil || r.status != http.StatusNoContent {
		return reply{fail: httpFailure(r, err)}
	}
	return reply{token: r.token}
}

// tcpRun is one two-process deployment and its check state.
type tcpRun struct {
	*storeLoad
	d httpDoor
}

func runTCP2(cfg runConfig) (*result, error) {
	res := newResult()
	fr := rand.New(rand.NewSource(cfg.seed))
	filler := make([]byte, tcpValue-8)
	words := []string{"causal ", "stable ", "eunomia ", "replica ", "partition ", "visible ", "session "}
	for i := 0; i < len(filler); {
		i += copy(filler[i:], words[fr.Intn(len(words))])
	}
	mixCfg := tcpMix
	zipfSrc := rand.New(rand.NewSource(cfg.seed + 1))
	zipf := rand.NewZipf(zipfSrc, 1.1, 1, tcpKeys-1)
	mixCfg.key = func(*rand.Rand) string { return preKey(int(zipf.Uint64())) }
	sched := schedule(cfg.seed, cfg.seconds, storeWorkers, mixCfg, tcpKeys)
	nOps := cfg.seconds * tcpMix.rate
	traced := cfg.tr != nil

	dataRoot := filepath.Join(cfg.work, "tcp2")
	if err := os.RemoveAll(dataRoot); err != nil {
		return nil, err
	}
	atExit(func() { os.RemoveAll(dataRoot) })
	var t *tcpRun
	for i := 0; i < tcpSetups; i++ {
		if t != nil {
			stopDCs(t.d.ss)
		}
		// Each set-up's servers log to a directory of their own.
		dir := filepath.Join(dataRoot, fmt.Sprintf("setup%d", i))
		start := time.Now()
		ss, err := startDCs(cfg.server, dir, traced)
		if err != nil {
			return nil, err
		}
		atExit(func() { stopDCs(ss) })
		d := httpDoor{ss: ss}
		for w := 0; w < storeWorkers; w++ {
			d.clients = append(d.clients, httpClient())
		}
		t = &tcpRun{newStoreLoad(d, tcpDCs, tcpKeys, tcpValue, tcpMix.sessions, filler, cfg.tr, "http"), d}
		if err := waitHealthy(ss, d.clients[0]); err != nil {
			stopDCs(ss)
			return nil, err
		}
		setup := newResult()
		t.preload(&setup.tally, d)
		res.setups = append(res.setups, time.Since(start).Seconds())
		if i == tcpSetups-1 {
			res.attempt(setup.attempted)
			for k, n := range setup.reasons {
				res.failN(k, n)
			}
		}
	}

	// CPU figures are per-layer only; a failed /proc read leaves one 0.
	var cpu0 [tcpDCs]time.Duration
	var gc0 [tcpDCs]int64
	for i, s := range t.d.ss {
		cpu0[i], _ = pidCPU(s.cmd.Process.Pid)
		gc0[i] = s.gcLines.Load()
	}
	m0 := t.d.scrape()
	stopScrape := make(chan struct{})
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		if !traced {
			return
		}
		tk := time.NewTicker(tcpScrapeEvery)
		defer tk.Stop()
		for {
			select {
			case <-stopScrape:
				return
			case <-tk.C:
				m := t.d.scrape()
				cfg.tr.gauge("applier_pending", m.sum("eunomia_applier_pending", ""))
				cfg.tr.gauge("release_inflight", m.sum("eunomia_release_inflight", ""))
			}
		}
	}()
	t.run(res, sched)
	close(stopScrape)
	<-scrapeDone
	m1 := t.d.scrape()

	if traced {
		t.layerMetrics(res, m0, m1, int64(nOps))
		var cpu1 time.Duration
		var rss float64
		var gcs int64
		for i, s := range t.d.ss {
			c, _ := pidCPU(s.cmd.Process.Pid)
			cpu1 += c - cpu0[i]
			rss = max(rss, pidPeakRSSMB(s.cmd.Process.Pid))
			gcs += s.gcLines.Load() - gc0[i]
		}
		kops := float64(nOps) / 1000
		res.layers["proc.cpu_ms_per_kop"] = figure{ratio(float64(cpu1)/1e6, kops), nOps}
		res.layers["proc.rss_peak_mb"] = figure{rss, tcpDCs}
		res.layers["runtime.gc_per_kop"] = figure{ratio(float64(gcs), kops), nOps}
		res.layers["proc.idle_cpu_pct"] = figure{idleCPUPct(func() time.Duration {
			var sum time.Duration
			for _, s := range t.d.ss {
				c, _ := pidCPU(s.cmd.Process.Pid)
				sum += c
			}
			return sum
		}), 1}
	}

	t.drain(res)
	t.checkConvergence(res)
	stopDCs(t.d.ss)

	t.figures(res, nOps)
	res.e2e["visible_p75_ms"] = t.migRead.slicedPct(75, time.Second)
	res.e2e["visible_p90_ms"] = t.migRead.slicedPct(90, time.Second)
	return res, nil
}

// checkConvergence reads every key put in the window at both DCs with a
// fresh session; the two must return the same value, and that value
// must be one written to the key.
func (t *tcpRun) checkConvergence(res *result) {
	seen := map[string]bool{}
	t.mu.Lock()
	for _, w := range t.writes {
		if w.id >= tcpKeys && w.kind == opPut {
			seen[w.key] = true
		}
	}
	t.mu.Unlock()
	keys := sortedKeys(seen)
	var wg sync.WaitGroup
	for w := 0; w < storeWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(keys); i += storeWorkers {
				res.attempt(1)
				var vals [tcpDCs][]byte
				failed := false
				for m := 0; m < tcpDCs; m++ {
					r := t.d.get(w, m, "", keys[i])
					if r.fail == "" && !r.found {
						r.fail = "HTTP 404"
					}
					if r.fail != "" {
						res.fail("convergence read: " + r.fail)
						failed = true
						break
					}
					vals[m] = r.value
				}
				if failed {
					continue
				}
				if t.keyOfValue(vals[0]) != keys[i] {
					res.wrongOutput("convergence: value of another key")
				} else if !bytes.Equal(vals[0], vals[1]) {
					res.fail("convergence: DCs disagree after drain")
				}
			}
		}(w)
	}
	wg.Wait()
	res.notes = append(res.notes, fmt.Sprintf("convergence checked on %d keys written in the window", len(keys)))
}
