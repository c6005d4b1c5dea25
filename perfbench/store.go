package main

// The two store workloads, geo3-sim and tcp2-http, share one
// open-loop runner: the schedule's execution, the session pools, the
// preload and its barrier, the drain, the failure accounting and the
// figures. They differ only in how a call reaches a front door (a door:
// in process or over HTTP) and in their own checks and layer metrics.

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// storeWorkers is how many workers generate a store workload's load and
// its preload, matching the two cores of the reference machine.
const storeWorkers = 2

// door is one way into a deployment's front doors. Worker w makes the
// call at DC dc with session token tok.
type door interface {
	get(w, dc int, tok, key string) reply
	put(w, dc int, tok, key string, val []byte) reply
}

// reply is one front-door answer. fail is "" on success and otherwise
// names why the call counts as failed; a read that finds nothing
// succeeds with found false. A put's reply carries only its token.
type reply struct {
	found bool
	value []byte
	token string
	fail  string
}

func preKey(i int) string { return fmt.Sprintf("k%05d", i) }

// writeRec is one accepted write, for the loss and convergence checks.
type writeRec struct {
	id   uint64
	key  string
	dc   int
	kind opKind
}

// storeLoad runs one store workload's schedule through a door and keeps
// what its checks need.
type storeLoad struct {
	door      door
	dcs       int
	keys      int // preloaded keys; write ids below keys are preload writes
	valueSize int
	filler    []byte
	tr        *tracer
	spans     [3]string // span layers of get, put and migrate read calls
	// probe, when set, follows every successful local get or put with
	// the workload's own probes (the traced run only).
	probe func(root span, w, dc int, op *schedOp)

	// wmu[dc] is held around every write at dc: two concurrent updates
	// at one partition can lose one of them on this code (defect a), so
	// each DC takes one write at a time, as if each had a single writer.
	wmu []sync.Mutex

	mu     sync.Mutex
	writes []writeRec
	keyOf  map[uint64]string // window and probe write ids → key

	toks                           [storeWorkers][]string
	get, put, local, migRead, late samples // ms, from due (migrate read: from put return)
	getSvc, putSvc, migSvc         samples // ms, from dispatch to return
	getOK, putOK                   samples // the same, of successful local gets and puts
	okOps, lastDone                atomic.Int64
}

// newStoreLoad sets up a runner whose span layers start with layer.
func newStoreLoad(d door, dcs, keys, valueSize, sessions int, filler []byte, tr *tracer, layer string) *storeLoad {
	s := &storeLoad{door: d, dcs: dcs, keys: keys, valueSize: valueSize, filler: filler, tr: tr,
		spans: [3]string{layer + ".get", layer + ".put", layer + ".migrate_read"},
		keyOf: map[uint64]string{}, wmu: make([]sync.Mutex, dcs)}
	for w := range s.toks {
		s.toks[w] = make([]string, sessions)
	}
	return s
}

func (s *storeLoad) record(id uint64, key string, dc int, kind opKind) {
	s.mu.Lock()
	s.writes = append(s.writes, writeRec{id, key, dc, kind})
	s.mu.Unlock()
}

// claim notes which key write id is for, before the write is issued:
// another worker may read the value before the put returns.
func (s *storeLoad) claim(id uint64, key string) {
	s.mu.Lock()
	s.keyOf[id] = key
	s.mu.Unlock()
}

// keyOfValue returns the key the write carried in v was for, "" if no
// write was.
func (s *storeLoad) keyOfValue(v []byte) string {
	id, ok := valueID(v)
	if !ok {
		return ""
	}
	return s.keyOfID(id)
}

// keyOfID returns the key write id was for, "" if none was.
func (s *storeLoad) keyOfID(id uint64) string {
	if id < uint64(s.keys) {
		return preKey(int(id))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.keyOf[id]
}

// preload writes the keyspace, key i at DC i mod dcs by worker
// i mod storeWorkers, each worker with one session per DC, then reads
// every session's token at every DC through barrier: the replication
// barrier. A session chained across DCs wedged receivers on this code
// (defect a), so each DC gets its own.
func (s *storeLoad) preload(t *tally, barrier door) {
	var wg sync.WaitGroup
	for w := 0; w < storeWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			toks := make([]string, s.dcs)
			for i := w; i < s.keys; i += storeWorkers {
				dc, key := i%s.dcs, preKey(i)
				t.attempt(1)
				s.wmu[dc].Lock()
				r := s.door.put(w, dc, toks[dc], key, value(uint64(i), s.filler, s.valueSize))
				s.wmu[dc].Unlock()
				if r.fail != "" {
					t.fail("preload put: " + r.fail)
					continue
				}
				toks[dc] = r.token
				s.record(uint64(i), key, dc, opPut)
			}
			for _, tok := range toks {
				for m := 0; m < s.dcs; m++ {
					t.attempt(1)
					if r := barrier.get(w, m, tok, preKey(0)); r.fail != "" {
						t.fail("preload barrier: " + r.fail)
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// run executes the schedule. Every operation is timed from its due
// time, so a stall is charged to every operation queued behind it.
func (s *storeLoad) run(res *result, sched [][]schedOp) {
	runSchedule(sched, func(w int, op *schedOp, due time.Time) {
		s.late.addDur(time.Since(due), time.Millisecond)
		var root span
		if s.tr != nil {
			root = s.tr.begin("op", 0, 0)
			root.Start = int64(due.Sub(s.tr.base))
		}
		ok := s.do(res, w, op, due, root)
		s.tr.end(root)
		if ok {
			s.okOps.Add(1)
		}
		storeMax(&s.lastDone, int64(time.Since(due)+op.at))
	})
}

// call makes one front-door call inside a span and returns its reply
// and service time (dispatch to return).
func (s *storeLoad) call(root span, layer string, f func() reply) (reply, time.Duration) {
	sp := s.tr.begin(layer, root.ID, root.ID)
	t0 := time.Now()
	r := f()
	d := time.Since(t0)
	s.tr.end(sp)
	return r, d
}

// do runs one operation and reports whether it succeeded. Every failure
// is counted once, under its reason, and stays out of the latencies; a
// slow success is a sample like any other.
func (s *storeLoad) do(res *result, w int, op *schedOp, due time.Time, root span) bool {
	home := op.sess % s.dcs
	tok := &s.toks[w][op.sess]
	res.attempt(1)
	if op.kind == opGet {
		r, svc := s.call(root, s.spans[0], func() reply { return s.door.get(w, home, *tok, op.key) })
		if r.fail != "" {
			res.fail("get: " + r.fail)
			return false
		}
		s.getSvc.addAt(op.at, ms(svc))
		*tok = r.token
		d := time.Since(due)
		switch {
		case !r.found:
			res.fail("get: preloaded key not found")
			return false
		case s.keyOfValue(r.value) != op.key:
			res.wrongOutput("get: value of another key")
			return false
		}
		s.get.addAt(op.at, ms(d))
		s.local.addAt(op.at, ms(d))
		s.getOK.addAt(op.at, ms(svc))
		if s.probe != nil {
			s.probe(root, w, home, op)
		}
		return true
	}

	val := value(op.id, s.filler, s.valueSize)
	s.claim(op.id, op.key)
	// The wait for the DC's write lock is the generator's, not the
	// store's: it counts from due, not in the service time.
	s.wmu[home].Lock()
	r, svc := s.call(root, s.spans[1], func() reply { return s.door.put(w, home, *tok, op.key, val) })
	s.wmu[home].Unlock()
	if r.fail != "" {
		res.fail("put: " + r.fail)
		if op.kind == opMigrate {
			res.attempt(1)
			res.fail("migrate: read skipped, put failed")
		}
		return false
	}
	putDone := time.Now()
	s.putSvc.addAt(op.at, ms(svc))
	*tok = r.token
	s.record(op.id, op.key, home, op.kind)
	if op.kind == opPut {
		d := putDone.Sub(due)
		s.put.addAt(op.at, ms(d))
		s.local.addAt(op.at, ms(d))
		s.putOK.addAt(op.at, ms(svc))
	}
	if s.probe != nil {
		s.probe(root, w, home, op)
	}
	if op.kind == opPut {
		return true
	}

	res.attempt(1)
	r, svc = s.call(root, s.spans[2], func() reply { return s.door.get(w, op.to, *tok, op.key) })
	if r.fail != "" {
		res.fail("migrate read: " + r.fail)
		return false
	}
	s.migSvc.addAt(op.at, ms(svc))
	d := time.Since(putDone)
	*tok = r.token
	switch {
	case r.found && bytes.Equal(r.value, val):
	case r.found && s.keyOfValue(r.value) != op.key:
		res.wrongOutput("migrate: value of another key")
		return false
	default:
		res.fail("migrate: read-your-writes violation")
		return false
	}
	s.migRead.addAt(op.at, ms(d))
	return true
}

// drain reads every session's token at every DC, so that everything the
// sessions wrote is visible everywhere unless it was lost.
func (s *storeLoad) drain(res *result) {
	for w := range s.toks {
		for _, tok := range s.toks[w] {
			for m := 0; m < s.dcs; m++ {
				res.attempt(1)
				if r := s.door.get(w, m, tok, preKey(0)); r.fail != "" {
					res.fail("drain: " + r.fail)
				}
			}
		}
	}
}

// figures fills what both store workloads report for a schedule of
// nOps operations.
func (s *storeLoad) figures(res *result, nOps int) {
	elapsed := time.Duration(s.lastDone.Load()).Seconds()
	// The gated local latency is service time: from due, a local op
	// also carries the generator's wake-up and its queue behind the
	// worker's previous op, which follow the host more than the code.
	// It is the mean of the get and the put medians: the median of the
	// mixed samples would sit between the two types' distributions,
	// where a small shift in either moves it most.
	getP := s.getOK.slicedPct(50, time.Second)
	putP := s.putOK.slicedPct(50, time.Second)
	res.e2e["local_p50_ms"] = (getP + putP) / 2
	res.named["local_get_service_p50_ms"] = figure{getP, s.getOK.n()}
	res.named["local_put_service_p50_ms"] = figure{putP, s.putOK.n()}
	res.named["local_from_due_p50_ms"] = figure{s.local.slicedPct(50, time.Second), s.local.n()}
	// Every scheduled op completes, failed or not; failures are counted
	// apart, so ops_s moves only when the generator falls behind.
	res.e2e["ops_s"] = float64(nOps) / elapsed
	res.named["ok_ops_s"] = figure{float64(s.okOps.Load()) / elapsed, int(s.okOps.Load())}
	fig(res.named, "get_p50_ms", &s.get, 50)
	fig(res.named, "get_p95_ms", &s.get, 95)
	fig(res.named, "put_p50_ms", &s.put, 50)
	fig(res.named, "put_p95_ms", &s.put, 95)
	fig(res.named, "migrate_read_p50_ms", &s.migRead, 50)
	fig(res.named, "migrate_read_p95_ms", &s.migRead, 95)
	fig(res.named, "generator_late_p95_ms", &s.late, 95)
}
