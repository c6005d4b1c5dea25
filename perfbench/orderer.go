package main

// orderer-sat: the Figure 2 shape. The public eunomia.NewOrderer with 16
// streams is first loaded open loop far below saturation, for emission
// latency, then driven at saturation by two closed-loop producers, each
// owning half of the partition handles, for throughput. The consumer
// checks exactly-once emission in non-decreasing timestamp order.

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"eunomia"
)

const (
	ordStreams   = 16
	ordProducers = 2
	// ordWarm is the fixed number of operations each set-up submits
	// and waits to see emitted.
	ordWarm = 400_000
	// ordSetups is how many times set-up runs; setup_s is the median.
	ordSetups = 7
	// ordBatch is how many back-to-back Submit calls one timing sample
	// (local_p50_ms) covers.
	ordBatch = 16
	// ordSpanEvery: one timed run of Submit calls in this many is traced.
	ordSpanEvery = 8
	// ordSatRate sizes the saturated phase: ordSatRate submissions for
	// each of its seconds, split between the producers, about what the
	// reference machine orders in a second. A fixed count keeps a seed's
	// inputs, and the attempted count, the same from run to run.
	ordSatRate = 1_500_000
	// ordBlocked is the mean Submit duration over a timed run that
	// counts as stalled by backpressure.
	ordBlocked = 50 * time.Microsecond
	// ordWindow is how many submitted-but-not-emitted operations a
	// producer may have outstanding: the closed loop's depth, deep
	// enough to keep the service saturated and bounded so the pending
	// set, and memory, stay steady. Under saturation Submit → emission
	// is therefore about ordProducers·ordWindow / throughput, a
	// benchmark constant; emission latency is measured in the probe
	// phase instead, where the window never binds.
	ordWindow = 1 << 15
	// ordProbeRate is the probe phase's offered load, all producers
	// together: about 0.1% of saturation on the reference machine, and
	// low enough that the producers' spin-waits leave the cores to the
	// service.
	ordProbeRate = 2000
	// ordBatchInterval is the saturated Orderer's propagation period,
	// which is also its streams' heartbeat threshold. A stream whose
	// Submit is descheduled between taking its timestamp and enqueueing
	// the op for longer than this can heartbeat past the op, which
	// Eunomia then drops as a duplicate (defect b). Submitting from 2
	// producers for 8 s lost 65-114 of 12 M ops at 1 ms, 2-15 at 5 ms
	// and none at 20 ms.
	ordBatchInterval = 20 * time.Millisecond
	// ordProbeBatch is the open-loop phase's period, on an Orderer of its
	// own. With it at 1 ms, 2 of 20 runs lost ops, one of them 2 ops of
	// this phase (the other's phase was not recorded). Emission
	// latency follows the phases of the 16 stream timers: at 10 ms on a
	// fresh Orderer its p75 stayed within 15.86-15.98 ms over 4 runs,
	// where 20 ms read 23.7-25.7 ms and the saturated Orderer's 20 ms,
	// its timers spread by the warm-up, 19.5 and 22.7 ms at p50.
	ordProbeBatch = 10 * time.Millisecond
)

// ordRun is one Orderer instance plus its consumer-side checks.
type ordRun struct {
	ord    *eunomia.Orderer
	tr     *tracer
	base   time.Time
	maxOps uint64 // op ids stay below this

	mu       sync.Mutex
	seen     []uint64 // exactly-once bitmap over op ids
	lastTS   eunomia.Timestamp
	emitted  atomic.Int64
	dups     int64
	reorders int64
	calls    int64
	target   eunomia.Timestamp // emission at or past it closes reached
	reached  chan struct{}
	credit   *sync.Cond // broadcast after every emission
	// emittedBy counts emissions per producer (op id modulo producers).
	emittedBy [ordProducers]atomic.Int64

	// Probe phase: op id probeBase+k was due at probeDue[k] (ns since
	// base; 0 until stored). probeBase is 0 until the phase starts.
	probeBase  atomic.Uint64
	probeDue   []atomic.Int64
	probeStart atomic.Int64 // ns since base
	visible    samples      // due → emission of probe ops, ms
	emitLag    samples      // emission − timestamp of probe ops, ms (traced only)
}

// newOrdRun starts an Orderer whose streams propagate every batch (0:
// the default) and whose op ids stay below maxOps.
func newOrdRun(tr *tracer, maxOps uint64, probeOps int, batch time.Duration) (*ordRun, error) {
	r := &ordRun{
		tr:     tr,
		base:   time.Now(),
		maxOps: maxOps,
		// Fence ids run past maxOps.
		seen:     make([]uint64, (maxOps+1024)/64+1),
		probeDue: make([]atomic.Int64, probeOps),
	}
	ord, err := eunomia.NewOrderer(eunomia.OrdererConfig{Partitions: ordStreams, BatchInterval: batch, OnStable: r.onStable})
	if err != nil {
		return nil, err
	}
	r.ord = ord
	r.credit = sync.NewCond(&r.mu)
	return r, nil
}

func (r *ordRun) onStable(ops []eunomia.StableOp) {
	sp := r.tr.begin("orderer.emit", 0, 0)
	now := time.Since(r.base)
	probeBase := r.probeBase.Load()
	r.mu.Lock()
	r.calls++
	for _, op := range ops {
		id := binary.LittleEndian.Uint64(op.Data)
		w, bit := id/64, uint64(1)<<(id%64)
		if r.seen[w]&bit != 0 {
			r.dups++
		}
		r.seen[w] |= bit
		r.emittedBy[id%ordProducers].Add(1)
		if op.Timestamp < r.lastTS {
			r.reorders++
		}
		r.lastTS = op.Timestamp
		if probeBase > 0 && id >= probeBase && id-probeBase < uint64(len(r.probeDue)) {
			if due := r.probeDue[id-probeBase].Load(); due > 0 {
				r.visible.addAt(now-time.Duration(r.probeStart.Load()), float64(int64(now)-due)/1e6)
			}
			if r.tr != nil {
				r.emitLag.add(float64(time.Since(op.Timestamp.Time())) / 1e6)
			}
		}
	}
	r.emitted.Add(int64(len(ops)))
	if r.reached != nil && r.lastTS >= r.target {
		close(r.reached)
		r.reached = nil
	}
	r.credit.Broadcast()
	r.mu.Unlock()
	r.tr.end(sp)
}

// newProducers gives each producer every ordProducers-th stream of r.
func newProducers(r *ordRun) []*producer {
	prods := make([]*producer, ordProducers)
	for p := range prods {
		prods[p] = &producer{idx: p, next: uint64(p), step: ordProducers}
		for h := p; h < ordStreams; h += ordProducers {
			prods[p].handles = append(prods[p].handles, r.ord.Partition(h))
		}
	}
	return prods
}

// check counts the submitted ops r never emitted as failed and every
// duplicate or out-of-order emission as wrong output. r's Orderer must
// be closed: Close waits until everything submitted is emitted.
func (r *ordRun) check(res *result, phase string, submitted int64) {
	res.attempt(submitted)
	r.mu.Lock()
	defer r.mu.Unlock()
	res.failN(phase+": submission never emitted", submitted-r.emitted.Load()+r.dups)
	for i := int64(0); i < r.dups; i++ {
		res.wrongOutput("duplicate emission")
	}
	for i := int64(0); i < r.reorders; i++ {
		res.wrongOutput("timestamp decreased")
	}
}

// waitStable blocks until an operation stamped at or after ts has been
// emitted. Emission is in timestamp order, so by then every earlier
// submission that will ever be emitted has been; the ones missing are
// lost, and the final count reports them.
func (r *ordRun) waitStable(ts eunomia.Timestamp, timeout time.Duration) error {
	r.mu.Lock()
	if r.lastTS >= ts {
		r.mu.Unlock()
		return nil
	}
	ch := make(chan struct{})
	r.target, r.reached = ts, ch
	r.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("nothing stamped at or after %v emitted within %v (%d emitted)", ts, timeout, r.emitted.Load())
	}
}

// fence submits one operation on every stream after everything the
// producers submitted so far and waits for the first of them to be
// emitted. One fence per stream keeps a single lost submission from
// stalling the wait.
func fence(r *ordRun, prods []*producer) (int64, error) {
	var last eunomia.Timestamp
	for _, p := range prods {
		last = max(last, p.dep)
	}
	var n int64
	for _, p := range prods {
		for _, h := range p.handles {
			h.Submit(last, p.data())
			p.sent++
			n++
		}
	}
	return n, r.waitStable(last+1, 30*time.Second)
}

// producer submits ops with ids next, next+step, ... on its handles,
// round-robin, passing the largest timestamp it has seen as dep.
type producer struct {
	idx     int
	sent    int64
	handles []*eunomia.PartitionHandle
	h       int // next handle
	next    uint64
	step    uint64
	dep     eunomia.Timestamp
	buf     []byte

	submit      samples // timed Submit durations, µs
	blocked     int64
	timed       int64
	creditWaits int64 // timed runs that first waited for the window
}

// data returns the 8-byte payload carrying the producer's next op id.
func (p *producer) data() []byte {
	if len(p.buf) < 8 {
		p.buf = make([]byte, 64<<10)
	}
	d := p.buf[:8:8]
	p.buf = p.buf[8:]
	binary.LittleEndian.PutUint64(d, p.next)
	p.next += p.step
	return d
}

// submitNext submits data on the next handle.
func (p *producer) submitNext(data []byte) {
	p.dep = p.handles[p.h].Submit(p.dep, data)
	p.h = (p.h + 1) % len(p.handles)
}

// run submits count ops, or as many as r's op ids allow, and returns
// how many it submitted. With timeIt, Submit calls are timed
// in runs of ordBatch back-to-back calls, one sample per run: a sample
// is the mean cost of one Submit, free of most of the clock's own cost.
// winStart is the window's start, ns since r.base.
func (p *producer) run(r *ordRun, count int64, timeIt bool, winStart time.Duration) int64 {
	var done int64
	for done < count {
		if p.next+ordBatch*p.step >= r.maxOps {
			break
		}
		if p.sent-r.emittedBy[p.idx].Load() > ordWindow-ordBatch {
			if timeIt {
				p.creditWaits++
			}
			r.mu.Lock()
			for p.sent-r.emittedBy[p.idx].Load() > ordWindow-ordBatch {
				r.credit.Wait()
			}
			r.mu.Unlock()
		}
		n := min(int64(ordBatch), count-done)
		var sp, child span
		var t0 time.Duration
		// One timed run in ordSpanEvery also gets spans, keeping the
		// traced run's span count to a few hundred thousand.
		traceIt := timeIt && p.timed%ordSpanEvery == 0
		if traceIt {
			sp = r.tr.begin("op", 0, 0)
			child = r.tr.begin("orderer.submit", sp.ID, sp.ID)
		}
		if timeIt {
			t0 = time.Since(r.base)
		}
		for i := int64(0); i < n; i++ {
			p.submitNext(p.data())
		}
		p.sent += n
		done += n
		if timeIt {
			d := float64(time.Since(r.base)-t0) / float64(n) // ns
			if traceIt {
				r.tr.end(child)
				r.tr.end(sp)
			}
			p.submit.addAt(t0-winStart, d/1e3)
			p.timed++
			if d >= float64(ordBlocked) {
				p.blocked++
			}
		}
	}
	return done
}

// probe submits one op at each due time of the schedule (offsets from
// start), alternating producers, from one goroutine: a second sleeping
// generator thread would take a core from the service. Op k of the
// phase has id r.probeBase+k.
func probe(r *ordRun, prods []*producer, start time.Time, due []time.Duration) {
	for k, at := range due {
		p := prods[k%len(prods)]
		t := start.Add(at)
		waitUntil(t)
		r.probeDue[p.next-r.probeBase.Load()].Store(int64(t.Sub(r.base)))
		p.submitNext(p.data())
		p.sent++
	}
}

// realign moves every producer's next id past every id issued so far,
// keeping id mod ordProducers the producer's index, and returns the
// lowest.
func realign(prods []*producer) uint64 {
	base := uint64(0)
	for _, p := range prods {
		base = max(base, p.next)
	}
	base += ordProducers - base%ordProducers
	for i, p := range prods {
		p.next = base + uint64(i)
	}
	return base
}

// arrivals draws a Poisson process of rate per second over d.
func arrivals(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	for at := time.Duration(0); ; {
		at += time.Duration(rng.ExpFloat64() * float64(time.Second) / rate)
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}

func runOrdererSat(cfg runConfig) (*result, error) {
	res := newResult()
	// Half the window, at least a second, measures emission latency;
	// the rest measures throughput. Both figures are medians of
	// one-second slices, and the latency tail needs as many slices.
	probeSecs := max(1, cfg.seconds/2)
	satSecs := max(1, cfg.seconds-probeSecs)
	probeDue := arrivals(rand.New(rand.NewSource(cfg.seed)), ordProbeRate, time.Duration(probeSecs)*time.Second)
	satOps := int64(satSecs) * ordSatRate / ordProducers // per producer

	var r *ordRun
	var prods []*producer
	var fences int64
	for i := 0; i < ordSetups; i++ {
		if r != nil {
			r.ord.Close()
		}
		start := time.Now()
		var err error
		r, err = newOrdRun(cfg.tr, uint64(ordProducers*(ordWarm+satOps)+4096), 0, ordBatchInterval)
		if err != nil {
			return nil, err
		}
		prods = newProducers(r)
		var wg sync.WaitGroup
		for _, p := range prods {
			wg.Add(1)
			go func(p *producer) {
				defer wg.Done()
				p.run(r, ordWarm, false, 0)
			}(p)
		}
		wg.Wait()
		if fences, err = fence(r, prods); err != nil {
			r.ord.Close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		res.setups = append(res.setups, time.Since(start).Seconds())
	}
	closeOnce := sync.OnceFunc(r.ord.Close)
	atExit(closeOnce)
	submitted := ordWarm*ordProducers + fences

	// Probe: emission latency far below saturation, from each op's due
	// time to its emission, on an Orderer of its own (ordProbeBatch).
	// It runs first, on a collected heap.
	pr, err := newOrdRun(cfg.tr, uint64(len(probeDue))+4096, len(probeDue), ordProbeBatch)
	if err != nil {
		return nil, err
	}
	closeProbe := sync.OnceFunc(pr.ord.Close)
	atExit(closeProbe)
	pprods := newProducers(pr)
	runtime.GC()
	ps := time.Now()
	pr.probeStart.Store(int64(ps.Sub(pr.base)))
	pr.probeBase.Store(realign(pprods))
	probe(pr, pprods, ps, probeDue)
	n, err := fence(pr, pprods)
	if err != nil {
		return nil, err
	}
	closeProbe()
	pr.check(res, "open loop", int64(len(probeDue))+n)

	// Saturation: throughput, and the local cost of a Submit.
	pw := startProcWindow()
	var wg sync.WaitGroup
	e0 := r.emitted.Load()
	t0 := time.Now()
	counts := make([]int64, len(prods))
	for i, p := range prods {
		wg.Add(1)
		go func(i int, p *producer) {
			defer wg.Done()
			counts[i] = p.run(r, satOps, true, t0.Sub(r.base))
		}(i, p)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Throughput is the median of the phase's whole seconds, like the
	// latency percentiles.
	var rates []float64
	prev, prevT := e0, t0
	tick := time.NewTicker(time.Second)
	for running := true; running; {
		select {
		case <-done:
			running = false
		case <-tick.C:
			e, now := r.emitted.Load(), time.Now()
			rates = append(rates, float64(e-prev)/now.Sub(prevT).Seconds())
			prev, prevT = e, now
		}
	}
	tick.Stop()
	windowOps := r.emitted.Load() - e0
	if len(rates) == 0 {
		rates = append(rates, float64(windowOps)/time.Since(t0).Seconds())
	}
	pw.finish(res, windowOps)
	for _, c := range counts {
		submitted += c
	}

	if cfg.tr != nil {
		// Let the backlog drain so the idle window is idle.
		if n, err = fence(r, prods); err != nil {
			return nil, err
		}
		submitted += n
		res.layers["proc.idle_cpu_pct"] = figure{idleCPUPct(selfCPU), 1}
	}
	closeOnce() // flushes every stream and waits for the drain
	r.check(res, "saturated", submitted)

	var submit samples
	var blocked, timed, creditWaits int64
	for _, p := range prods {
		submit.v = append(submit.v, p.submit.v...)
		submit.at = append(submit.at, p.submit.at...)
		blocked += p.blocked
		timed += p.timed
		creditWaits += p.creditWaits
	}
	res.e2e["local_p50_ms"] = submit.slicedPct(50, time.Second) / 1000
	res.e2e["visible_p75_ms"] = pr.visible.slicedPct(75, time.Second)
	res.e2e["visible_p90_ms"] = pr.visible.slicedPct(90, time.Second)
	res.e2e["ops_s"] = median(rates)
	fig(res.named, "submit_p50_us", &submit, 50)
	fig(res.named, "submit_p95_us", &submit, 95)
	fig(res.named, "emit_p50_ms", &pr.visible, 50)
	fig(res.named, "emit_p95_ms", &pr.visible, 95)
	res.named["ordered_ops_s"] = figure{res.e2e["ops_s"], int(windowOps)}
	res.named["credit_wait_pct"] = figure{100 * ratio(float64(creditWaits), float64(timed)), int(timed)}

	if cfg.tr != nil {
		r.mu.Lock()
		calls := r.calls
		r.mu.Unlock()
		fig(res.layers, "orderer.submit_us_p50", &submit, 50)
		res.layers["orderer.submit_blocked_pct"] = figure{100 * ratio(float64(blocked), float64(timed)), int(timed)}
		res.layers["eunomia.emit_ops_per_call"] = figure{ratio(float64(r.emitted.Load()), float64(calls)), int(calls)}
		fig(res.layers, "eunomia.emit_lag_ms_p50", &pr.emitLag, 50)
	}
	return res, nil
}
