package main

// geo3-sim: the paper's §7.2 deployment in one process — 3 DCs × 8
// partitions on the simulated network at 0.1× the paper's RTTs, memory
// store, 100-byte values over a preloaded keyspace — loaded open loop
// through geostore.Frontend front doors.

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"eunomia/internal/geostore"
	"eunomia/internal/simnet"
	"eunomia/internal/types"
)

const (
	geoDCs      = 3
	geoParts    = 8
	geoKeys     = 30_000
	geoValue    = 100
	geoRTTScale = 0.1
	geoSetups   = 7
	// geoBatch is the partitions' propagation period, which is also
	// their heartbeat threshold: an update descheduled between taking
	// its timestamp and reaching the Eunomia client for longer than this
	// can be heartbeaten past and dropped as a duplicate (defect a).
	// With one write at a time per DC, the preload (both cores busy)
	// lost 1-5 of its 30 000 writes in every run at the default 1 ms, 3
	// in 35 preloads at 5 ms and none in 40 at 10 ms.
	geoBatch = 10 * time.Millisecond
	// geoWait bounds a front-door visibility wait: about 50× a healthy
	// migrate read, so a stall costs a counted failure, not a frozen run.
	geoWait = 250 * time.Millisecond
	// geoBarrierWait bounds the set-up barrier's waits, which cover the
	// replication backlog a fast preload leaves behind.
	geoBarrierWait = 10 * time.Second
	// geoProbeEvery: the traced run probes one get and one put in this
	// many directly at the partition and the version store.
	geoProbeEvery = 20
	// geoGaugeEvery is the traced run's gauge sampling cadence.
	geoGaugeEvery = 10 * time.Millisecond
)

var geoMix = mix{rate: 2000, migrate: 0.02, getShare: 0.9, sessions: 32, dcs: geoDCs,
	key:           func(r *rand.Rand) string { return preKey(r.Intn(geoKeys)) },
	migrateWorker: true}

// feDoor calls in-process front doors, one per DC.
type feDoor []*geostore.Frontend

func (d feDoor) get(_, dc int, tok, key string) reply {
	gr, err := d[dc].Get(tok, types.Key(key))
	if err != nil {
		return reply{fail: frontendFailure(err)}
	}
	return reply{found: gr.Found, value: gr.Value, token: gr.Token}
}

func (d feDoor) put(_, dc int, tok, key string, val []byte) reply {
	pr, err := d[dc].Put(tok, types.Key(key), val)
	if err != nil {
		return reply{fail: frontendFailure(err)}
	}
	return reply{token: pr.Token}
}

// geoRun is one deployment with its front doors and check state.
type geoRun struct {
	*storeLoad
	st      *geostore.Store
	fe      feDoor
	barrier feDoor // wider wait bound, for set-up only
	delay   simnet.DelayFunc

	visMask []atomic.Uint32 // per write id: bit d set once visible at DC d
	window  atomic.Bool     // set while the window runs; start is valid
	start   time.Time
	visible samples       // payload arrival → visible, ms (window only)
	payLag  samples       // payload arrival − commit − one-way delay, ms
	nextID  atomic.Uint64 // probe write ids
}

func oneWay(delay simnet.DelayFunc, from, to int) time.Duration {
	return delay(simnet.Addr{DC: types.DCID(from)}, simnet.Addr{DC: types.DCID(to)})
}

func newGeoRun(tr *tracer, filler []byte, maxIDs int) *geoRun {
	g := &geoRun{
		// The door is set below, once the front doors exist; OnVisible
		// reads the tracer from the start.
		storeLoad: newStoreLoad(nil, geoDCs, geoKeys, geoValue, geoMix.sessions, filler, tr, "frontend"),
		delay:     simnet.LatencyMatrix(simnet.PaperRTTs(geoRTTScale), 0),
		visMask:   make([]atomic.Uint32, maxIDs),
	}
	g.st = geostore.NewStore(geostore.Config{
		DCs: geoDCs, Partitions: geoParts, Delay: g.delay, OnVisible: g.onVisible, BatchInterval: geoBatch,
	})
	for m := 0; m < geoDCs; m++ {
		g.fe = append(g.fe, geostore.NewFrontend(geostore.FrontendConfig{
			Fabric: g.st.Network(), DC: types.DCID(m), DCs: geoDCs, Partitions: geoParts,
			Index: 1, WaitTimeout: geoWait,
		}))
		g.barrier = append(g.barrier, geostore.NewFrontend(geostore.FrontendConfig{
			Fabric: g.st.Network(), DC: types.DCID(m), DCs: geoDCs, Partitions: geoParts,
			Index: 2, WaitTimeout: geoBarrierWait,
		}))
	}
	g.door = g.fe
	return g
}

func (g *geoRun) close() {
	for _, f := range append(g.fe, g.barrier...) {
		f.Close()
	}
	g.st.Close()
}

func (g *geoRun) onVisible(dest types.DCID, u *types.Update, arrived time.Time) {
	if id, ok := valueID(u.Value); ok && id < uint64(len(g.visMask)) {
		g.visMask[id].Or(1 << dest)
	}
	if g.window.Load() {
		now := time.Now()
		g.visible.addAt(now.Sub(g.start), ms(now.Sub(arrived)))
		if g.tr != nil {
			lag := arrived.Sub(u.TS.Time()) - oneWay(g.delay, int(u.Origin), int(dest))
			g.payLag.addDur(lag, time.Millisecond)
		}
	}
}

// geoLayer holds the traced run's probe samples and counter baselines.
type geoLayer struct {
	partRead, partUpdate  samples // µs
	kvGet                 samples // ns
	pending, stableLag    samples
	siteLag, queueLen     samples
	clients               [storeWorkers][geoDCs]*geostore.Client
	eu0                   [geoDCs]euStats
	waits0, waitTimeouts0 int64
	payWait0, remoteAppl0 int64
}

type euStats struct{ received, dups, batches, shipped, rounds int64 }

func (g *geoRun) euStats() (out [geoDCs]euStats) {
	for m := range out {
		if l := g.st.Eunomia(types.DCID(m)).Leader(); l != nil {
			s := l.Stats()
			out[m] = euStats{s.OpsReceived, s.Duplicates, s.Batches, s.OpsShipped, s.Stabilization}
		}
	}
	return out
}

func (g *geoRun) partCounters() (payWait, remote int64) {
	for m := 0; m < geoDCs; m++ {
		for p := 0; p < geoParts; p++ {
			pt := g.st.Partition(types.DCID(m), types.PartitionID(p))
			payWait += pt.PayloadWait.Load()
			remote += pt.RemoteApplied.Load()
		}
	}
	return
}

func (g *geoRun) feCounters() (waits, timeouts int64) {
	for _, f := range g.fe {
		waits += f.Waits.Load()
		timeouts += f.WaitTimeouts.Load()
	}
	return
}

// sampleGauges reads Eunomia and receiver state once.
func (g *geoRun) sampleGauges(l *geoLayer) {
	now := time.Now()
	for m := 0; m < geoDCs; m++ {
		if ld := g.st.Eunomia(types.DCID(m)).Leader(); ld != nil {
			s := ld.Stats()
			l.pending.add(float64(s.Pending))
			lag := float64(now.Sub(s.StableTime.Time())) / 1e6
			l.stableLag.add(lag)
			g.tr.gauge(fmt.Sprintf("eunomia.dc%d.pending", m), float64(s.Pending))
			g.tr.gauge(fmt.Sprintf("eunomia.dc%d.stable_lag_ms", m), lag)
		}
		rc := g.st.Receiver(types.DCID(m))
		for k := 0; k < geoDCs; k++ {
			if k == m {
				continue
			}
			lag := float64(now.Sub(rc.SiteTimeEntry(types.DCID(k)).Time())-oneWay(g.delay, k, m)) / 1e6
			q := float64(rc.QueueLen(types.DCID(k)))
			l.siteLag.add(lag)
			l.queueLen.add(q)
			g.tr.gauge(fmt.Sprintf("receiver.dc%d.from%d.site_lag_ms", m, k), lag)
			g.tr.gauge(fmt.Sprintf("receiver.dc%d.from%d.queue_len", m, k), q)
		}
	}
}

func runGeo3(cfg runConfig) (*result, error) {
	res := newResult()
	fr := rand.New(rand.NewSource(cfg.seed))
	filler := make([]byte, geoValue-8)
	for i := range filler {
		filler[i] = byte('a' + fr.Intn(26))
	}
	sched := schedule(cfg.seed, cfg.seconds, storeWorkers, geoMix, geoKeys)
	nOps := cfg.seconds * geoMix.rate
	probeBase := uint64(geoKeys + nOps)
	maxIDs := geoKeys + nOps + nOps/geoProbeEvery + 16

	var g *geoRun
	for i := 0; i < geoSetups; i++ {
		if g != nil {
			g.close()
		}
		start := time.Now()
		g = newGeoRun(cfg.tr, filler, maxIDs)
		setup := newResult()
		g.preload(&setup.tally, g.barrier)
		res.setups = append(res.setups, time.Since(start).Seconds())
		if i == geoSetups-1 {
			res.attempt(setup.attempted)
			for k, n := range setup.reasons {
				res.failN(k, n)
			}
		}
	}
	closeOnce := sync.OnceFunc(g.close)
	atExit(closeOnce)
	g.nextID.Store(probeBase)

	var lay geoLayer
	traced := cfg.tr != nil
	stopGauges := make(chan struct{})
	gaugesDone := make(chan struct{})
	if traced {
		for w := range lay.clients {
			for m := range lay.clients[w] {
				lay.clients[w][m] = g.st.NewClient(types.DCID(m))
			}
		}
		lay.eu0 = g.euStats()
		lay.waits0, lay.waitTimeouts0 = g.feCounters()
		lay.payWait0, lay.remoteAppl0 = g.partCounters()
		g.probe = func(root span, w, dc int, op *schedOp) {
			if op.id%geoProbeEvery != 0 {
				return
			}
			if op.kind == opGet {
				g.probeRead(&lay, root, dc, op.key)
			} else {
				res.attempt(1)
				g.probeUpdate(&lay, root, w, dc)
			}
		}
		go func() {
			defer close(gaugesDone)
			t := time.NewTicker(geoGaugeEvery)
			defer t.Stop()
			for {
				select {
				case <-stopGauges:
					return
				case <-t.C:
					g.sampleGauges(&lay)
				}
			}
		}()
	} else {
		close(gaugesDone)
	}

	pw := startProcWindow()
	g.start = time.Now()
	g.window.Store(true)
	g.run(res, sched)
	g.window.Store(false)
	close(stopGauges)
	<-gaugesDone
	pw.finish(res, int64(nOps))

	if traced {
		g.layerMetrics(res, &lay, int64(nOps))
		res.layers["proc.idle_cpu_pct"] = figure{idleCPUPct(selfCPU), 1}
	}

	g.drain(res)
	g.checkWrites(res)
	closeOnce()

	g.figures(res, nOps)
	res.e2e["visible_p75_ms"] = g.visible.slicedPct(75, time.Second)
	res.e2e["visible_p90_ms"] = g.visible.slicedPct(90, time.Second)
	fig(res.named, "visibility_p50_ms", &g.visible, 50)
	fig(res.named, "visibility_p95_ms", &g.visible, 95)
	return res, nil
}

// frontendFailure names a failed front-door call for the failure tally.
func frontendFailure(err error) string {
	switch {
	case errors.Is(err, geostore.ErrVisibilityTimeout):
		return "visibility wait timeout"
	case errors.Is(err, geostore.ErrOpTimeout):
		return "partition round trip timeout"
	}
	return "front door error"
}

// probeRead times a direct Partition.Read and a version-store Get of the
// key the operation just read through the front door.
func (g *geoRun) probeRead(l *geoLayer, root span, dc int, key string) {
	p := g.st.Partition(types.DCID(dc), g.st.Ring().Responsible(types.Key(key)))
	sp := g.tr.begin("probe.partition.read", root.ID, root.ID)
	t0 := time.Now()
	p.Read(types.Key(key))
	l.partRead.addDur(time.Since(t0), time.Microsecond)
	g.tr.end(sp)
	sp = g.tr.begin("probe.kvstore.get", root.ID, root.ID)
	t0 = time.Now()
	p.Store().Get(types.Key(key))
	l.kvGet.addDur(time.Since(t0), time.Nanosecond)
	g.tr.end(sp)
}

// probeUpdate times a geostore.Client.Update of a fresh probe key. The
// write replicates like any other and is checked like any other.
func (g *geoRun) probeUpdate(l *geoLayer, root span, w, dc int) {
	id := g.nextID.Add(1)
	if id >= uint64(len(g.visMask)) {
		return
	}
	key := "p" + itoa(id)
	g.claim(id, key)
	sp := g.tr.begin("probe.partition.update", root.ID, root.ID)
	g.wmu[dc].Lock()
	t0 := time.Now()
	// In process, Update returns no error; the write's fate is checked
	// with every other write's.
	_ = l.clients[w][dc].Update(types.Key(key), value(id, g.filler, geoValue))
	l.partUpdate.addDur(time.Since(t0), time.Microsecond)
	g.wmu[dc].Unlock()
	g.tr.end(sp)
	g.record(id, key, dc, opPut)
}

// checkWrites counts as lost every write that is not visible at every
// remote DC and not superseded there by a later write of the same key
// (a lost write that is its key's latest leaves the DCs disagreeing). It
// notes how many keys disagree and the OnVisible count against
// writes × (DCs − 1).
func (g *geoRun) checkWrites(res *result) {
	final := func(m int, key string) (uint64, bool) {
		p := g.st.Partition(types.DCID(m), g.st.Ring().Responsible(types.Key(key)))
		v, ok := p.Store().Get(types.Key(key))
		if !ok {
			return 0, false
		}
		return valueID(v.Value)
	}
	g.mu.Lock()
	writes := append([]writeRec(nil), g.writes...)
	g.mu.Unlock()
	var lost, visibleCalls int64
	diverged := map[string]bool{}
	for _, w := range writes {
		mask := g.visMask[w.id].Load()
		for d := 0; d < geoDCs; d++ {
			if mask&(1<<d) != 0 {
				visibleCalls++
			}
		}
		missing := false
		for d := 0; d < geoDCs; d++ {
			if d != w.dc && mask&(1<<d) == 0 {
				missing = true
			}
		}
		ids := [geoDCs]uint64{}
		agree := true
		for d := 0; d < geoDCs; d++ {
			id, ok := final(d, w.key)
			ids[d] = id
			if !ok || ids[d] != ids[0] {
				agree = false
			}
			if ok && g.keyOfID(id) != w.key {
				res.wrongOutput("store holds another key's value")
			}
		}
		if !agree {
			diverged[w.key] = true
		}
		superseded := agree && ids[0] != w.id
		if missing && !superseded {
			lost++
		}
	}
	res.failN("write lost before a remote DC", lost)
	res.notes = append(res.notes,
		fmt.Sprintf("OnVisible calls %d for %d writes × %d remote DCs = %d expected",
			visibleCalls, len(writes), geoDCs-1, int64(len(writes))*(geoDCs-1)),
		fmt.Sprintf("keys diverged across DCs after drain: %d", len(diverged)))
}

// layerMetrics fills the traced run's per-layer metrics.
func (g *geoRun) layerMetrics(res *result, l *geoLayer, ops int64) {
	L := res.layers
	fig(L, "frontend.get_service_ms_p50", &g.getSvc, 50)
	fig(L, "frontend.put_service_ms_p50", &g.putSvc, 50)
	waits, timeouts := g.feCounters()
	L["frontend.waits_per_kop"] = figure{ratio(float64(waits-l.waits0), float64(ops)/1000), int(ops)}
	var wl samples
	for _, f := range g.fe {
		if f.WaitLat.Count() > 0 {
			wl.add(float64(f.WaitLat.Percentile(50)) / 1e6)
		}
	}
	L["frontend.wait_ms_p50"] = figure{median(wl.v), int(waits - l.waits0)}
	L["frontend.wait_timeouts"] = figure{float64(timeouts - l.waitTimeouts0), int(waits - l.waits0)}
	fig(L, "partition.read_us_p50", &l.partRead, 50)
	fig(L, "partition.update_us_p50", &l.partUpdate, 50)
	fig(L, "kvstore.get_ns_p50", &l.kvGet, 50)
	L["fabric.roundtrip_ms_p50"] = figure{g.getSvc.pct(50) - l.partRead.pct(50)/1000, l.partRead.n()}
	pw, ra := g.partCounters()
	L["partition.payload_waits_per_kremote"] = figure{ratio(float64(pw-l.payWait0), float64(ra-l.remoteAppl0)/1000), int(ra - l.remoteAppl0)}

	var stored, user int64
	for m := 0; m < geoDCs; m++ {
		for p := 0; p < geoParts; p++ {
			s := g.st.Partition(types.DCID(m), types.PartitionID(p)).Store()
			stored += s.Bytes()
			user += int64(s.Len()) * (int64(len(preKey(0))) + geoValue)
		}
	}
	L["kvstore.bytes_per_user_byte"] = figure{ratio(float64(stored), float64(user)), geoDCs * geoParts}

	eu1 := g.euStats()
	var d euStats
	for m := range eu1 {
		d.received += eu1[m].received - l.eu0[m].received
		d.dups += eu1[m].dups - l.eu0[m].dups
		d.batches += eu1[m].batches - l.eu0[m].batches
		d.shipped += eu1[m].shipped - l.eu0[m].shipped
		d.rounds += eu1[m].rounds - l.eu0[m].rounds
	}
	L["eunomia.ops_per_batch"] = figure{ratio(float64(d.received), float64(d.batches)), int(d.batches)}
	L["eunomia.ops_per_round"] = figure{ratio(float64(d.shipped), float64(d.rounds)), int(d.rounds)}
	L["eunomia.duplicates_per_mop"] = figure{1e6 * ratio(float64(d.dups), float64(d.received)), int(d.received)}
	fig(L, "eunomia.pending_p50", &l.pending, 50)
	fig(L, "eunomia.stable_lag_ms_p50", &l.stableLag, 50)
	fig(L, "ship.payload_lag_ms_p50", &g.payLag, 50)
	fig(L, "receiver.site_lag_ms_p50", &l.siteLag, 50)
	fig(L, "receiver.queue_len_p50", &l.queueLen, 50)
}
