package simnet

import (
	"sync"
	"testing"
	"time"

	"eunomia/internal/fabric"
	"eunomia/internal/types"
)

func collector() (Handler, func() []Message) {
	var mu sync.Mutex
	var got []Message
	h := func(m Message) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	}
	return h, func() []Message {
		mu.Lock()
		defer mu.Unlock()
		return append([]Message(nil), got...)
	}
}

func waitLen(t *testing.T, snapshot func() []Message, n int, within time.Duration) []Message {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if msgs := snapshot(); len(msgs) >= n {
			return msgs
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("expected %d messages within %v, got %d", n, within, len(snapshot()))
	return nil
}

func TestZeroDelayDelivery(t *testing.T) {
	n := New(nil)
	defer n.Close()
	h, snap := collector()
	b := Addr{DC: 0, Name: "b"}
	n.Register(b, h)
	for i := 0; i < 10; i++ {
		n.Send(Addr{DC: 0, Name: "a"}, b, i)
	}
	msgs := waitLen(t, snap, 10, time.Second)
	for i, m := range msgs {
		if m.Payload.(int) != i {
			t.Fatalf("FIFO violated: msg %d carries %v", i, m.Payload)
		}
	}
}

func TestDelayApplied(t *testing.T) {
	const delay = 30 * time.Millisecond
	n := New(func(from, to Addr) time.Duration { return delay })
	defer n.Close()
	h, snap := collector()
	dst := Addr{DC: 1, Name: "dst"}
	n.Register(dst, h)

	start := time.Now()
	n.Send(Addr{DC: 0, Name: "src"}, dst, "x")
	msgs := waitLen(t, snap, 1, time.Second)
	elapsed := time.Since(start)
	if elapsed < delay {
		t.Fatalf("delivered after %v, want >= %v", elapsed, delay)
	}
	if msgs[0].Payload != "x" {
		t.Fatal("payload corrupted")
	}
}

func TestFIFOUnderLoad(t *testing.T) {
	n := New(func(from, to Addr) time.Duration { return time.Millisecond })
	defer n.Close()
	h, snap := collector()
	dst := Addr{DC: 1, Name: "dst"}
	n.Register(dst, h)
	const count = 500
	for i := 0; i < count; i++ {
		n.Send(Addr{DC: 0, Name: "src"}, dst, i)
	}
	msgs := waitLen(t, snap, count, 5*time.Second)
	for i, m := range msgs {
		if m.Payload.(int) != i {
			t.Fatalf("FIFO violated at %d: got %v", i, m.Payload)
		}
	}
}

func TestSeparateLinksIndependentDelays(t *testing.T) {
	// A slow link between one pair must not delay another pair.
	n := New(func(from, to Addr) time.Duration {
		if from.Name == "slow" {
			return 100 * time.Millisecond
		}
		return 0
	})
	defer n.Close()
	h, snap := collector()
	dst := Addr{DC: 1, Name: "dst"}
	n.Register(dst, h)
	n.Send(Addr{DC: 0, Name: "slow"}, dst, "slow")
	n.Send(Addr{DC: 0, Name: "fast"}, dst, "fast")
	msgs := waitLen(t, snap, 1, time.Second)
	if msgs[0].Payload != "fast" {
		t.Fatal("fast link blocked behind slow link")
	}
	waitLen(t, snap, 2, time.Second)
}

func TestUnregisteredDestinationDrops(t *testing.T) {
	n := New(nil)
	defer n.Close()
	n.Send(Addr{DC: 0, Name: "a"}, Addr{DC: 0, Name: "ghost"}, 1)
	deadline := time.Now().Add(time.Second)
	for n.Dropped.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n.Dropped.Load() != 1 {
		t.Fatalf("Dropped = %d, want 1", n.Dropped.Load())
	}
}

func TestUnregisterCrash(t *testing.T) {
	n := New(nil)
	defer n.Close()
	h, snap := collector()
	dst := Addr{DC: 0, Name: "victim"}
	n.Register(dst, h)
	n.Send(Addr{DC: 0, Name: "a"}, dst, 1)
	waitLen(t, snap, 1, time.Second)
	n.Unregister(dst)
	n.Send(Addr{DC: 0, Name: "a"}, dst, 2)
	time.Sleep(20 * time.Millisecond)
	if len(snap()) != 1 {
		t.Fatal("message delivered to crashed endpoint")
	}
}

func TestDropRules(t *testing.T) {
	n := New(nil)
	defer n.Close()
	h, snap := collector()
	dst := Addr{DC: 1, Name: "dst"}
	src := Addr{DC: 0, Name: "src"}
	n.Register(dst, h)

	n.SetDrop(src, dst, true)
	n.Send(src, dst, "dropped")
	time.Sleep(10 * time.Millisecond)
	if len(snap()) != 0 {
		t.Fatal("drop rule ignored")
	}

	n.SetDrop(src, dst, false)
	n.Send(src, dst, "through")
	waitLen(t, snap, 1, time.Second)
}

func TestWildcardDrop(t *testing.T) {
	n := New(nil)
	defer n.Close()
	h, snap := collector()
	dst := Addr{DC: 1, Name: "dst"}
	n.Register(dst, h)
	n.SetDrop(Addr{}, dst, true) // cut all ingress
	n.Send(Addr{DC: 0, Name: "x"}, dst, 1)
	n.Send(Addr{DC: 2, Name: "y"}, dst, 2)
	time.Sleep(10 * time.Millisecond)
	if len(snap()) != 0 {
		t.Fatal("wildcard drop ignored")
	}
}

func TestDuplication(t *testing.T) {
	n := New(nil)
	defer n.Close()
	h, snap := collector()
	dst := Addr{DC: 1, Name: "dst"}
	src := Addr{DC: 0, Name: "src"}
	n.Register(dst, h)
	n.SetDuplicate(src, dst, 2) // two extra copies
	n.Send(src, dst, "m")
	msgs := waitLen(t, snap, 3, time.Second)
	if len(msgs) != 3 {
		t.Fatalf("got %d copies, want 3", len(msgs))
	}
}

func TestCloseDropsTraffic(t *testing.T) {
	n := New(nil)
	h, snap := collector()
	dst := Addr{DC: 0, Name: "dst"}
	n.Register(dst, h)
	n.Close()
	n.Send(Addr{DC: 0, Name: "a"}, dst, 1)
	time.Sleep(10 * time.Millisecond)
	if len(snap()) != 0 {
		t.Fatal("send after Close delivered")
	}
	n.Close() // idempotent
}

func TestLatencyMatrix(t *testing.T) {
	rtts := PaperRTTs(1)
	delay := LatencyMatrix(rtts, 100*time.Microsecond)
	cases := []struct {
		a, b types.DCID
		want time.Duration
	}{
		{0, 1, 40 * time.Millisecond},
		{1, 0, 40 * time.Millisecond},
		{0, 2, 40 * time.Millisecond},
		{1, 2, 80 * time.Millisecond},
		{2, 1, 80 * time.Millisecond},
	}
	for _, c := range cases {
		got := delay(Addr{DC: c.a}, Addr{DC: c.b})
		if got != c.want {
			t.Errorf("delay dc%d→dc%d = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if got := delay(Addr{DC: 1, Name: "x"}, Addr{DC: 1, Name: "y"}); got != 100*time.Microsecond {
		t.Errorf("intra-DC delay = %v", got)
	}
}

func TestPaperRTTScaling(t *testing.T) {
	half := PaperRTTs(0.5)
	if half[[2]types.DCID{0, 1}] != 40*time.Millisecond {
		t.Fatal("scaling broken")
	}
}

func TestAddrHelpers(t *testing.T) {
	if PartitionAddr(1, 3).String() != "dc1/partition3" {
		t.Fatal("PartitionAddr format")
	}
	if EunomiaAddr(2, 0).Name != "eunomia0" {
		t.Fatal("EunomiaAddr format")
	}
	if ReceiverAddr(0).Name != "receiver" || StabilizerAddr(1).Name != "stabilizer" {
		t.Fatal("addr helper format")
	}
	if SequencerAddr(1, 2).Name != "sequencer2" {
		t.Fatal("SequencerAddr format")
	}
}

func TestBatcherFlushAndOrder(t *testing.T) {
	n := New(nil)
	defer n.Close()
	h, snap := collector()
	dst := Addr{DC: 1, Name: "dst"}
	n.Register(dst, h)
	b := fabric.NewBatcher[int](n, Addr{DC: 0, Name: "src"}, 5*time.Millisecond)
	for i := 0; i < 100; i++ {
		b.Add(dst, i)
	}
	b.Close() // flushes
	msgs := waitLen(t, snap, 1, time.Second)
	total := 0
	expect := 0
	for _, m := range msgs {
		items := m.Payload.([]int)
		for _, it := range items {
			if it != expect {
				t.Fatalf("batch order violated: got %d, want %d", it, expect)
			}
			expect++
			total++
		}
	}
	if total != 100 {
		t.Fatalf("delivered %d items, want 100", total)
	}
}

func TestBatcherPeriodicFlush(t *testing.T) {
	n := New(nil)
	defer n.Close()
	h, snap := collector()
	dst := Addr{DC: 1, Name: "dst"}
	n.Register(dst, h)
	b := fabric.NewBatcher[string](n, Addr{DC: 0, Name: "src"}, 2*time.Millisecond)
	defer b.Close()
	b.Add(dst, "x")
	waitLen(t, snap, 1, time.Second) // arrives without Close
}
