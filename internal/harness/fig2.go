package harness

import (
	"sync"
	"sync/atomic"
	"time"

	"eunomia/internal/eunomia"
	"eunomia/internal/hlc"
	"eunomia/internal/metrics"
	"eunomia/internal/sequencer"
	"eunomia/internal/types"
)

// ServiceOptions parameterise the service-saturation experiments (Figures
// 2, 3 and 4), which — as in §7.1 — connect load generators directly to
// the ordering service, bypassing the data store, so the service itself is
// the bottleneck. Each generator goroutine emulates one datacenter
// partition issuing operations eagerly.
type ServiceOptions struct {
	// Duration is the measured window per data point (default 1s).
	Duration time.Duration
	// Warmup precedes measurement (default 250ms).
	Warmup time.Duration
	// BatchInterval is the partition→Eunomia propagation period
	// (default 1ms, as in §7.1).
	BatchInterval time.Duration
	// MaxPending is the per-partition backpressure bound (default 1024).
	// Eager producers keep the buffer pinned at this bound, so it sets
	// the burst granularity of the pipeline; it is kept small enough
	// that many stabilization rounds fit in every measurement window.
	MaxPending int
	// SequencerMsgCost is the emulated per-request processing cost
	// charged to sequencer services (default 5µs — the order of the
	// receive-parse-reply handling a networked sequencer performs per request).
	SequencerMsgCost time.Duration
	// EunomiaMsgCost is the emulated per-batch processing cost charged
	// to Eunomia replicas (default 2µs — one streamed message receive;
	// batching amortizes it across the operations in the batch).
	EunomiaMsgCost time.Duration
	// PerPartitionRate caps each emulated partition's offered load in
	// ops/s (default 33000). In the paper each partition stream comes
	// from a real machine with finite capacity, which is why Figure 2's
	// throughput climbs with the partition count until the service
	// saturates; an unbounded in-process producer would saturate the
	// service with a single stream and hide that shape. Zero or
	// negative means eager (unbounded) producers.
	PerPartitionRate int
}

func (o *ServiceOptions) fill() {
	if o.Duration <= 0 {
		o.Duration = time.Second
	}
	if o.Warmup <= 0 {
		o.Warmup = 250 * time.Millisecond
	}
	if o.BatchInterval <= 0 {
		o.BatchInterval = time.Millisecond
	}
	if o.MaxPending <= 0 {
		o.MaxPending = 1024
	}
	if o.SequencerMsgCost <= 0 {
		o.SequencerMsgCost = 5 * time.Microsecond
	}
	if o.EunomiaMsgCost <= 0 {
		o.EunomiaMsgCost = 2 * time.Microsecond
	}
	if o.PerPartitionRate == 0 {
		o.PerPartitionRate = 33000
	}
}

// Fig2Point is one (service, partition-count) measurement.
type Fig2Point struct {
	Service    string
	Partitions int
	Throughput float64 // ops/s sustained through the service
}

// Fig2Result reproduces Figure 2: maximum throughput of Eunomia versus a
// traditional sequencer while varying the number of partitions that drive
// the service. The paper reports Eunomia sustaining ~7.7× the sequencer's
// rate, with throughput flat in the partition count.
type Fig2Result struct {
	Partitions []int
	Points     []Fig2Point
	// Ratio is max(Eunomia)/max(Sequencer), the headline number.
	Ratio float64
}

// DefaultFig2Partitions mirrors the paper's sweep.
var DefaultFig2Partitions = []int{15, 30, 45, 60, 75}

// Fig2 runs the saturation sweep.
func Fig2(o ServiceOptions, partitions []int) Fig2Result {
	o.fill()
	if len(partitions) == 0 {
		partitions = DefaultFig2Partitions
	}
	res := Fig2Result{Partitions: partitions}
	var maxEu, maxSeq float64
	for _, p := range partitions {
		eu := eunomiaSaturation(o, p, 1, false, eunomia.Runs)
		if eu > maxEu {
			maxEu = eu
		}
		res.Points = append(res.Points, Fig2Point{Service: "Eunomia", Partitions: p, Throughput: eu})
	}
	for _, p := range partitions {
		sq := sequencerSaturation(o, p, 0)
		if sq > maxSeq {
			maxSeq = sq
		}
		res.Points = append(res.Points, Fig2Point{Service: "Sequencer", Partitions: p, Throughput: sq})
	}
	if maxSeq > 0 {
		res.Ratio = maxEu / maxSeq
	}
	return res
}

// eunomiaSaturation drives an Eunomia replica set with p eager partition
// emulators and returns the stabilized-operation throughput. replicas
// selects the fault-tolerance factor; fireAndForget selects the Algorithm
// 3 (non-FT) propagation path.
func eunomiaSaturation(o ServiceOptions, p, replicas int, fireAndForget bool, tree eunomia.TreeKind) float64 {
	o.fill()
	counter := newDedupCounter(nil)
	cluster := eunomia.NewCluster(replicas, eunomia.Config{
		Partitions:     p,
		StableInterval: time.Millisecond,
		Tree:           tree,
		MessageCost:    o.EunomiaMsgCost,
	}, func(_ types.ReplicaID, ops []*types.Update) { counter.consume(ops) })
	defer cluster.Stop()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	clients := make([]*eunomia.Client, p)
	for i := 0; i < p; i++ {
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

	time.Sleep(o.Warmup)
	before := counter.total()
	time.Sleep(o.Duration)
	after := counter.total()
	close(stop)
	// Close clients before joining producers: Close is what wakes a
	// producer parked in Issue's backpressure wait.
	for _, c := range clients {
		c.Close()
	}
	wg.Wait()
	return float64(after-before) / o.Duration.Seconds()
}

// producePartition emulates one partition stream: at rate ops/s (in 1ms
// bursts) when rate > 0, or eagerly otherwise.
func producePartition(stop <-chan struct{}, client *eunomia.Client, p types.PartitionID, rate int) {
	var seq uint64
	emit := func() {
		seq++
		client.Issue(0, &types.Update{Partition: p, Seq: seq})
	}
	if rate <= 0 {
		for {
			select {
			case <-stop:
				return
			default:
			}
			emit()
		}
	}
	perTick := rate / 1000
	if perTick < 1 {
		perTick = 1
	}
	ticker := time.NewTicker(time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			for j := 0; j < perTick; j++ {
				emit()
			}
		}
	}
}

// sequencerSaturation drives a sequencer with p eager clients performing
// the synchronous per-operation round trip, and returns the completed
// operation rate. chain > 1 selects the chain-replicated variant.
func sequencerSaturation(o ServiceOptions, p, chain int) float64 {
	o.fill()
	var svc sequencer.Service
	if chain > 1 {
		ch := sequencer.NewChain(chain)
		ch.MessageCost = o.SequencerMsgCost
		svc = ch
	} else {
		single := sequencer.NewSingle()
		single.MessageCost = o.SequencerMsgCost
		svc = single
	}
	defer svc.Stop()

	var count metrics.Counter
	var measuring atomic.Bool
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := svc.Next(); err != nil {
					return
				}
				if measuring.Load() {
					count.Inc()
				}
			}
		}()
	}

	time.Sleep(o.Warmup)
	measuring.Store(true)
	time.Sleep(o.Duration)
	measuring.Store(false)
	close(stop)
	total := count.Load()
	svc.Stop()
	wg.Wait()
	return float64(total) / o.Duration.Seconds()
}
