package harness

import (
	"sync"
	"time"

	"eunomia/internal/eunomia"
	"eunomia/internal/hlc"
	"eunomia/internal/metrics"
	"eunomia/internal/types"
)

// Fig3Point is one fault-tolerance configuration's throughput.
type Fig3Point struct {
	Config     string // "Eunomia Non-FT", "Eunomia 2-FT", "Sequencer 3-FT", ...
	Throughput float64
	Normalized float64 // against Eunomia Non-FT
}

// Fig3Result reproduces Figure 3: the throughput cost of fault tolerance.
// The paper reports ~9% overhead for replicated Eunomia regardless of the
// replica count (replicas never coordinate) versus ~33% for a
// chain-replicated sequencer (whose replicas serialize every request).
type Fig3Result struct {
	Points []Fig3Point
}

// Fig3 measures Eunomia in non-FT mode and with 1-3 replicas, and the
// sequencer plain and with a 3-replica chain, at the given partition
// count (the paper uses its Figure 2 saturation point, 60).
func Fig3(o ServiceOptions, partitions int) Fig3Result {
	o.fill()
	if partitions <= 0 {
		partitions = 60
	}
	var res Fig3Result
	base := eunomiaSaturation(o, partitions, 1, true, eunomia.Runs)
	add := func(name string, thr float64) {
		norm := 0.0
		if base > 0 {
			norm = thr / base
		}
		res.Points = append(res.Points, Fig3Point{Config: name, Throughput: thr, Normalized: norm})
	}
	add("Eunomia Non-FT", base)
	for r := 1; r <= 3; r++ {
		thr := eunomiaSaturation(o, partitions, r, false, eunomia.Runs)
		add(formatFT("Eunomia", r), thr)
	}
	add("Sequencer Non-FT", sequencerSaturation(o, partitions, 0))
	add("Sequencer 3-FT", sequencerSaturation(o, partitions, 3))
	return res
}

func formatFT(prefix string, r int) string {
	return prefix + " " + string(rune('0'+r)) + "-FT"
}

// Fig4Options shape the failure-impact time series. The paper runs ~700s
// with crashes at 160s and 470s; the defaults compress the same three-act
// structure into 12s.
type Fig4Options struct {
	Total  time.Duration // default 12s
	Crash1 time.Duration // crash replica 0 (the initial leader); default 4s
	Crash2 time.Duration // crash replica 1; default 8s
	Bucket time.Duration // time-series resolution; default 500ms
	// Partitions drives the service as in Figure 2; default 30 (kept
	// moderate so the run is CPU-stable over the whole series).
	Partitions    int
	BatchInterval time.Duration
	MaxPending    int
	// PerPartitionRate caps each partition stream's offered load in
	// ops/s, as in Figure 2 (default 33000).
	PerPartitionRate int
}

func (o *Fig4Options) fill() {
	if o.Total <= 0 {
		o.Total = 12 * time.Second
	}
	if o.Crash1 <= 0 {
		o.Crash1 = 4 * time.Second
	}
	if o.Crash2 <= 0 {
		o.Crash2 = 8 * time.Second
	}
	if o.Bucket <= 0 {
		o.Bucket = 500 * time.Millisecond
	}
	if o.Partitions <= 0 {
		o.Partitions = 30
	}
	if o.BatchInterval <= 0 {
		o.BatchInterval = time.Millisecond
	}
	if o.MaxPending <= 0 {
		o.MaxPending = 1024
	}
	if o.PerPartitionRate == 0 {
		o.PerPartitionRate = 33000
	}
}

// Fig4Series is one configuration's throughput over time.
type Fig4Series struct {
	Config  string
	Buckets []float64 // ops/s per bucket
	// Normalized divides by the Non-FT run's mean steady-state rate.
	Normalized []float64
}

// Fig4Result reproduces Figure 4: the impact of Eunomia replica crashes.
// Expected shape: 1-FT drops to zero at the first crash; 2-FT drops to
// zero at the second; 3-FT recovers after both; recovery reaches ~95-100%
// of the non-fault-tolerant rate within a few stabilization periods.
type Fig4Result struct {
	Options Fig4Options
	Series  []Fig4Series
}

// Fig4 runs the Non-FT reference and the 1/2/3-replica configurations,
// crashing replica 0 at Crash1 and replica 1 at Crash2.
func Fig4(o Fig4Options) Fig4Result {
	o.fill()
	res := Fig4Result{Options: o}

	runSeries := func(replicas int, fireAndForget bool, crashes bool) []float64 {
		series := metrics.NewTimeSeries(o.Bucket)
		counter := newDedupCounter(series)
		cluster := eunomia.NewCluster(replicas, eunomia.Config{
			Partitions:     o.Partitions,
			StableInterval: time.Millisecond,
		}, func(_ types.ReplicaID, ops []*types.Update) { counter.consume(ops) })

		stop := make(chan struct{})
		var wg sync.WaitGroup
		clients := make([]*eunomia.Client, o.Partitions)
		for i := 0; i < o.Partitions; i++ {
			clients[i] = eunomia.NewClient(eunomia.ClientConfig{
				Partition:     types.PartitionID(i),
				BatchInterval: o.BatchInterval,
				MaxPending:    o.MaxPending,
				FireAndForget: fireAndForget,
			}, eunomia.ClusterConns(cluster), hlc.NewClock(nil))
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				producePartition(stop, clients[i], types.PartitionID(i), o.PerPartitionRate)
			}(i)
		}

		if crashes {
			time.AfterFunc(o.Crash1, func() { cluster.Replica(0).Stop() })
			if replicas > 1 {
				time.AfterFunc(o.Crash2, func() { cluster.Replica(1).Stop() })
			}
		}

		time.Sleep(o.Total)
		close(stop)
		// Close clients before joining producers: a producer can be
		// parked in Issue's backpressure wait (all replicas dead in the
		// 1-FT run) and only Close wakes it.
		for _, c := range clients {
			c.Close()
		}
		wg.Wait()
		cluster.Stop()
		rates := series.Rates()
		// A crashed configuration stops recording, so its series stops
		// growing; pad with explicit zeros out to the run length.
		want := int(o.Total / o.Bucket)
		for len(rates) < want {
			rates = append(rates, 0)
		}
		if len(rates) > want {
			rates = rates[:want]
		}
		if len(rates) > 0 {
			rates = rates[:len(rates)-1] // final bucket is partial
		}
		return rates
	}

	nonFT := runSeries(1, true, false)
	res.Series = append(res.Series, Fig4Series{Config: "Non-FT", Buckets: nonFT})

	for r := 1; r <= 3; r++ {
		buckets := runSeries(r, false, true)
		res.Series = append(res.Series, Fig4Series{Config: formatFT("Eunomia", r), Buckets: buckets})
	}

	// Normalize every series against the Non-FT steady-state mean
	// (skipping the first bucket, which includes ramp-up).
	mean := 0.0
	n := 0
	for i := 1; i < len(nonFT); i++ {
		mean += nonFT[i]
		n++
	}
	if n > 0 {
		mean /= float64(n)
	}
	for i := range res.Series {
		s := &res.Series[i]
		s.Normalized = make([]float64, len(s.Buckets))
		for j, b := range s.Buckets {
			if mean > 0 {
				s.Normalized[j] = b / mean
			}
		}
	}
	return res
}
