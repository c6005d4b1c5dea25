package main

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// opKind is what one scheduled operation does.
type opKind uint8

const (
	opGet opKind = iota
	opPut
	opMigrate // put at the session's home DC, then read it at another DC
)

// schedOp is one operation of an open-loop schedule.
type schedOp struct {
	at   time.Duration // scheduled arrival, from the window start
	kind opKind
	id   uint64 // unique op id; a put's value carries it
	key  string
	sess int // index into the worker's session pool
	to   int // migrate: destination DC
}

// mix is an open-loop traffic mix.
type mix struct {
	rate     int     // operations per second, all workers together
	migrate  float64 // share of migrate operations
	getShare float64 // share of gets among the rest
	sessions int     // sessions per worker
	dcs      int
	key      func(r *rand.Rand) string
	// migrateWorker, when set, gives every migrate op to the last
	// worker and the local ops to the others, so a migrate read's
	// visibility wait never queues local ops behind it.
	migrateWorker bool
}

// schedule draws seconds×rate ops arriving as a Poisson process at m.rate
// and deals them round-robin to workers, so each worker runs its own
// schedule. Ids start at id0.
func schedule(seed int64, seconds, workers int, m mix, id0 uint64) [][]schedOp {
	r := rand.New(rand.NewSource(seed))
	n := seconds * m.rate
	out := make([][]schedOp, workers)
	var at time.Duration
	for k := 0; k < n; k++ {
		// Poisson arrivals: a fixed-period schedule would lock onto the
		// phase of the deployment's millisecond tickers and land every
		// op in (or out of) their bursts for a whole run.
		at += time.Duration(r.ExpFloat64() * float64(time.Second) / float64(m.rate))
		op := schedOp{at: at, id: id0 + uint64(k), sess: r.Intn(m.sessions)}
		switch {
		case r.Float64() < m.migrate:
			op.kind = opMigrate
			op.key = "m" + itoa(op.id)
			home := op.sess % m.dcs
			op.to = (home + 1 + r.Intn(m.dcs-1)) % m.dcs
		case r.Float64() < m.getShare:
			op.kind = opGet
			op.key = m.key(r)
		default:
			op.kind = opPut
			op.key = m.key(r)
		}
		w := k % workers
		if m.migrateWorker {
			w = k % (workers - 1)
			if op.kind == opMigrate {
				w = workers - 1
			}
		}
		out[w] = append(out[w], op)
	}
	return out
}

// runSchedule runs each worker's ops at their scheduled times (never
// earlier) and returns when all are done. exec gets the op's due time,
// from which its latency is timed, so a stall delays, and is charged
// to, every later op of that worker.
func runSchedule(sched [][]schedOp, exec func(w int, op *schedOp, due time.Time)) {
	start := time.Now()
	var wg sync.WaitGroup
	for w := range sched {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range sched[w] {
				op := &sched[w][i]
				due := start.Add(op.at)
				waitUntil(due)
				exec(w, op, due)
			}
		}(w)
	}
	wg.Wait()
}

// spinBefore is how long before an op is due its worker stops sleeping
// and spins, so the op starts on time rather than one thread wake-up
// late; at the workloads' rates it costs a few percent of one core.
const spinBefore = 80 * time.Microsecond

// waitUntil returns at t: a raw nanosleep to spinBefore ahead of it,
// then a spin. Where Go's poller waits in whole milliseconds, time.Sleep
// wakes up to a millisecond late, which would swamp sub-millisecond
// operations; a nanosleep on a thread whose timer slack is 1 ns wakes
// within tens of microseconds. The goroutine holds its
// thread only while it sleeps, so replies still wake it on any thread.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinBefore; d > 0 {
		runtime.LockOSThread()
		const prSetTimerSlack = 29
		_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil)
		runtime.UnlockOSThread()
	}
	for time.Now().Before(t) {
	}
}

// value builds a put's value: the op id, little-endian, then filler
// bytes up to size.
func value(id uint64, filler []byte, size int) []byte {
	v := make([]byte, size)
	binary.LittleEndian.PutUint64(v, id)
	copy(v[8:], filler)
	return v
}

// valueID recovers the op id from a value built by value.
func valueID(v []byte) (uint64, bool) {
	if len(v) < 8 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(v), true
}

// storeMax raises a to at least v.
func storeMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

func itoa(x uint64) string {
	var b [20]byte
	i := len(b)
	for {
		i--
		b[i] = byte('0' + x%10)
		x /= 10
		if x == 0 {
			return string(b[i:])
		}
	}
}
