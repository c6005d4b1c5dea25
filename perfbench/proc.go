package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times.
const clockTick = 100

// selfCPU returns user+system CPU time of this process.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfPeakRSSMB returns this process's peak resident set in MB.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// pidCPU returns user+system CPU time of another process.
func pidCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, 12 and 13 after the name.
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// pidPeakRSSMB returns another process's peak resident set (VmHWM) in MB.
func pidPeakRSSMB(pid int) float64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

func numGC() uint32 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC
}

// procWindow measures this process's CPU and GC across a load window.
type procWindow struct {
	cpu0 time.Duration
	gc0  uint32
}

func startProcWindow() procWindow { return procWindow{selfCPU(), numGC()} }

// finish fills the proc.* and runtime.* layer metrics for ops operations.
func (p procWindow) finish(r *result, ops int64) {
	kops := float64(ops) / 1000
	r.layers["proc.cpu_ms_per_kop"] = figure{ratio(float64(selfCPU()-p.cpu0)/1e6, kops), int(ops)}
	r.layers["proc.rss_peak_mb"] = figure{selfPeakRSSMB(), 1}
	r.layers["runtime.gc_per_kop"] = figure{ratio(float64(numGC()-p.gc0), kops), int(ops)}
}

// idleWindow is how long the traced run watches CPU with no load.
const idleWindow = time.Second

// idleCPUPct returns the CPU time cpu reports over an idle window, with
// nothing submitted, as a percentage of one core.
func idleCPUPct(cpu func() time.Duration) float64 {
	c0, t0 := cpu(), time.Now()
	time.Sleep(idleWindow)
	return 100 * float64(cpu()-c0) / float64(time.Since(t0))
}
