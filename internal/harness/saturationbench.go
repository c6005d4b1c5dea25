package harness

// SaturationBench is the headline number for the group-commit work:
// end-to-end client update throughput at each durability level. Three
// legs run the same workload — concurrent clients hammering a partition
// group — with no WAL, under SyncOnFlush (a loss window of one batch
// interval) and under SyncGroupCommit (Update returns only once the
// record is on disk, with one fsync per disk round trip shared by every
// concurrent updater).

import (
	"fmt"
	"os"
	"sync"
	"time"

	"eunomia/internal/fabric"
	"eunomia/internal/geostore"
	"eunomia/internal/simnet"
	"eunomia/internal/types"
	"eunomia/internal/wal"
)

// SaturationBenchOptions parameterises the policy comparison.
type SaturationBenchOptions struct {
	// Workers is the number of concurrent client goroutines (default 128)
	// — the concurrency group commit amortizes over.
	Workers int
	// Partitions per datacenter, i.e. WAL stores (default 2).
	Partitions int
	// ValueBytes sizes each value (default 128).
	ValueBytes int
	// Duration is the measured wall time per leg (default 400ms).
	Duration time.Duration
}

func (o *SaturationBenchOptions) fill() {
	if o.Workers <= 0 {
		o.Workers = 128
	}
	if o.Partitions <= 0 {
		o.Partitions = 2
	}
	if o.ValueBytes <= 0 {
		o.ValueBytes = 128
	}
	if o.Duration <= 0 {
		o.Duration = 400 * time.Millisecond
	}
}

// SaturationBenchResult reports client updates per second under each WAL
// policy.
type SaturationBenchResult struct {
	// VolatileOps: no WAL at all — the ceiling.
	VolatileOps float64
	// FlushOps: wal.SyncOnFlush — buffered appends, cadence fsyncs, loss
	// window of one batch interval.
	FlushOps float64
	// GroupOps: wal.SyncGroupCommit — durable on return, fsyncs shared
	// across concurrent updaters.
	GroupOps float64
}

// SaturationBench measures sustained client update throughput under each
// WAL sync policy on an otherwise identical single-datacenter deployment.
func SaturationBench(o SaturationBenchOptions) (SaturationBenchResult, error) {
	o.fill()
	legs := []struct {
		name    string
		durable bool
		policy  wal.SyncPolicy
	}{
		{"volatile", false, wal.SyncOnFlush},
		{"flush", true, wal.SyncOnFlush},
		{"group", true, wal.SyncGroupCommit},
	}
	var out SaturationBenchResult
	for _, leg := range legs {
		ops, err := saturationLeg(o, leg.durable, leg.policy)
		if err != nil {
			return SaturationBenchResult{}, fmt.Errorf("%s leg: %w", leg.name, err)
		}
		switch leg.name {
		case "volatile":
			out.VolatileOps = ops
		case "flush":
			out.FlushOps = ops
		case "group":
			out.GroupOps = ops
		}
	}
	return out, nil
}

func saturationLeg(o SaturationBenchOptions, durable bool, policy wal.SyncPolicy) (float64, error) {
	net := simnet.New(func(from, to fabric.Addr) time.Duration { return 0 })
	defer net.Close()

	nc := geostore.NodeConfig{
		Config: geostore.Config{DCs: 1, Partitions: o.Partitions},
		DC:     0, Roles: geostore.RoleAll, Fabric: net,
	}
	if durable {
		dir, err := os.MkdirTemp("", "eunomia-saturation-bench")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		nc.DataDir = dir
		nc.WALSync = policy
	}
	node, err := geostore.OpenNode(nc)
	if err != nil {
		return 0, err
	}
	defer func() { node.CloseIngress(); node.CloseServices() }()

	value := make([]byte, o.ValueBytes)
	counts := make([]int64, o.Workers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < o.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := node.NewClient()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := types.Key(fmt.Sprintf("w%d-k%d", w, i&511))
				if err := c.Update(key, value); err != nil {
					return
				}
				counts[w]++
			}
		}(w)
	}
	begin := time.Now()
	time.Sleep(o.Duration)
	close(stop)
	wg.Wait()
	elapsed := time.Since(begin).Seconds()

	var total int64
	for _, c := range counts {
		total += c
	}
	return float64(total) / elapsed, nil
}
