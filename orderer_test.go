package eunomia

import (
	"sync"
	"testing"
	"time"
)

// stableCollector gathers the ordered output of an Orderer.
type stableCollector struct {
	mu  sync.Mutex
	ops []StableOp
}

func (c *stableCollector) collect(ops []StableOp) {
	c.mu.Lock()
	c.ops = append(c.ops, ops...)
	c.mu.Unlock()
}

func (c *stableCollector) snapshot() []StableOp {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]StableOp(nil), c.ops...)
}

func (c *stableCollector) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.ops)
}

func TestOrdererValidation(t *testing.T) {
	if _, err := NewOrderer(OrdererConfig{Partitions: 0, OnStable: func([]StableOp) {}}); err == nil {
		t.Fatal("zero partitions accepted")
	}
	if _, err := NewOrderer(OrdererConfig{Partitions: 1}); err == nil {
		t.Fatal("missing OnStable accepted")
	}
	if _, err := NewOrderer(OrdererConfig{Partitions: MaxPartitions + 1, OnStable: func([]StableOp) {}}); err == nil {
		t.Fatalf("%d partitions accepted beyond the %d stream ids", MaxPartitions+1, MaxPartitions)
	}
}

// TestSubmitAllocs: Submit allocates less than once per call on average,
// counting everything the running service allocates meanwhile (flushes,
// stabilization rounds, OnStable batches): the operation records come
// from blocks each handle allocates at once.
func TestSubmitAllocs(t *testing.T) {
	ord, err := NewOrderer(OrdererConfig{Partitions: 4, OnStable: func([]StableOp) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer ord.Close()
	h := ord.Partition(1)
	data := []byte("op")
	var dep Timestamp
	if allocs := testing.AllocsPerRun(20000, func() { dep = h.Submit(dep, data) }); allocs >= 1 {
		t.Fatalf("%.2f allocations per Submit, want below 1", allocs)
	}
}

func TestOrdererTotalOrder(t *testing.T) {
	col := &stableCollector{}
	ord, err := NewOrderer(OrdererConfig{
		Partitions:            3,
		StabilizationInterval: time.Millisecond,
		BatchInterval:         time.Millisecond,
		OnStable:              col.collect,
	})
	if err != nil {
		t.Fatal(err)
	}

	const perStream = 200
	var wg sync.WaitGroup
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h := ord.Partition(p)
			var dep Timestamp
			for i := 0; i < perStream; i++ {
				dep = h.Submit(dep, []byte{byte(p), byte(i)})
			}
		}(p)
	}
	wg.Wait()

	waitFor(t, 5*time.Second, func() bool { return col.len() == 3*perStream })
	ord.Close()

	got := col.snapshot()
	for i := 1; i < len(got); i++ {
		if got[i].Timestamp < got[i-1].Timestamp {
			t.Fatalf("output not ordered at %d: %v after %v",
				i, got[i].Timestamp, got[i-1].Timestamp)
		}
	}
}

// TestOrdererCausalOrder submits causally chained ops across streams and
// checks the chain appears in order in the output.
func TestOrdererCausalOrder(t *testing.T) {
	col := &stableCollector{}
	ord, err := NewOrderer(OrdererConfig{
		Partitions:            2,
		StabilizationInterval: time.Millisecond,
		OnStable:              col.collect,
	})
	if err != nil {
		t.Fatal(err)
	}

	// A single actor alternates between streams: each submission
	// causally follows the previous one.
	var dep Timestamp
	const chain = 100
	for i := 0; i < chain; i++ {
		h := ord.Partition(i % 2)
		dep = h.Submit(dep, []byte{byte(i)})
	}
	waitFor(t, 5*time.Second, func() bool { return col.len() == chain })
	ord.Close()

	got := col.snapshot()
	for i, op := range got {
		if int(op.Data[0]) != i {
			t.Fatalf("causal chain reordered: position %d holds op %d", i, op.Data[0])
		}
	}
}

func TestOrdererFaultTolerance(t *testing.T) {
	col := &stableCollector{}
	ord, err := NewOrderer(OrdererConfig{
		Partitions:            1,
		Replicas:              2,
		StabilizationInterval: time.Millisecond,
		OnStable:              col.collect,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ord.Close()

	h := ord.Partition(0)
	h.Submit(0, []byte("before"))
	waitFor(t, 2*time.Second, func() bool { return col.len() == 1 })

	ord.CrashReplica(0)
	h.Submit(h.Timestamp(), []byte("after"))
	waitFor(t, 3*time.Second, func() bool { return col.len() >= 2 })

	found := false
	for _, op := range col.snapshot() {
		if string(op.Data) == "after" {
			found = true
		}
	}
	if !found {
		t.Fatal("op submitted after crash never ordered")
	}
}

// TestOrdererCloseDrainsAllSubmissions closes the orderer immediately
// after the last Submit, with no settling wait: Close must deterministically
// drain — every submitted operation is emitted, in order, before it
// returns.
func TestOrdererCloseDrainsAllSubmissions(t *testing.T) {
	col := &stableCollector{}
	ord, err := NewOrderer(OrdererConfig{
		Partitions:            4,
		StabilizationInterval: time.Millisecond,
		BatchInterval:         time.Millisecond,
		OnStable:              col.collect,
	})
	if err != nil {
		t.Fatal(err)
	}
	const perStream = 50
	for p := 0; p < 4; p++ {
		h := ord.Partition(p)
		var dep Timestamp
		for i := 0; i < perStream; i++ {
			dep = h.Submit(dep, []byte{byte(p), byte(i)})
		}
	}
	ord.Close() // no waitFor: the drain itself must deliver everything

	got := col.snapshot()
	if len(got) != 4*perStream {
		t.Fatalf("Close drained %d of %d submitted ops", len(got), 4*perStream)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Timestamp < got[i-1].Timestamp {
			t.Fatalf("drained output unordered at %d", i)
		}
	}
}

func TestPartitionHandleTimestamp(t *testing.T) {
	ord, err := NewOrderer(OrdererConfig{Partitions: 1, OnStable: func([]StableOp) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer ord.Close()
	h := ord.Partition(0)
	ts := h.Submit(0, nil)
	// Past the batch interval, so a flush advances the stream's clock
	// between the submission and the reads below.
	time.Sleep(5 * time.Millisecond)
	cur := h.Timestamp()
	if cur < ts {
		t.Fatalf("Timestamp() = %v is below the last submission %v", cur, ts)
	}
	if next := h.Submit(cur, nil); next <= cur {
		t.Fatalf("Submit(Timestamp()) = %v, want above %v", next, cur)
	}
}
