package fabric_test

// Propagation-tree tests at the fabric level: the aggregator as a real
// endpoint serving stream frames (MultiBatchMsg) from partition clients
// and child aggregators, with the in-process simulated WAN as the
// substrate. The TCP variants live in cmd/eunomia-server's tests.

import (
	"sync"
	"testing"
	"time"

	"eunomia/internal/eunomia"
	"eunomia/internal/fabric"
	"eunomia/internal/hlc"
	"eunomia/internal/simnet"
	"eunomia/internal/types"
)

// aggSink collects shipped operations in arrival order.
type aggSink struct {
	mu  sync.Mutex
	ops []*types.Update
}

func (s *aggSink) ship(_ types.ReplicaID, ops []*types.Update) {
	s.mu.Lock()
	s.ops = append(s.ops, ops...)
	s.mu.Unlock()
}

func (s *aggSink) snapshot() []*types.Update {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*types.Update(nil), s.ops...)
}

func (s *aggSink) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ops)
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%s not reached within %v", what, timeout)
}

// zeroNet returns a zero-delay simulated WAN.
func zeroNet() *simnet.Network {
	return simnet.New(func(from, to fabric.Addr) time.Duration { return 0 })
}

// treeClient wires one partition's batching client at a set of fabric
// endpoints (aggregators or the replica itself), registering the
// partition address to route acknowledgements back to the conns.
func treeClient(net fabric.Fabric, pid types.PartitionID, remotes []fabric.Addr, redundant bool) *eunomia.Client {
	local := fabric.PartitionAddr(0, pid)
	rcs := make([]*fabric.ReplicaConn, len(remotes))
	conns := make([]eunomia.Conn, len(remotes))
	for i, r := range remotes {
		rc := fabric.NewReplicaConn(net, local, r)
		rcs[i] = rc
		conns[i] = rc
	}
	net.Register(local, func(m fabric.Message) {
		for _, rc := range rcs {
			if rc.HandleMessage(m) {
				return
			}
		}
	})
	return eunomia.NewClient(eunomia.ClientConfig{
		Partition:      pid,
		BatchInterval:  time.Millisecond,
		RedundantPaths: redundant,
	}, conns, hlc.NewClock(nil))
}

// verifyStreams asserts the shipped output is totally ordered by
// timestamp and gap-free per partition stream, and returns the count.
func verifyStreams(t *testing.T, got []*types.Update) {
	t.Helper()
	perSeen := map[types.PartitionID]uint64{}
	for i := 1; i < len(got); i++ {
		if got[i].TS < got[i-1].TS {
			t.Fatalf("order violated through the tree at %d", i)
		}
	}
	for _, u := range got {
		if u.Seq != perSeen[u.Partition]+1 {
			t.Fatalf("partition %d stream has a gap or duplicate at seq %d (want %d)",
				u.Partition, u.Seq, perSeen[u.Partition]+1)
		}
		perSeen[u.Partition] = u.Seq
	}
}

// TestAggregatorForwardsAllOpsInOrder drives four partitions through a
// dual-homed pair of fabric aggregators and checks the replica ships
// every operation exactly once, totally ordered and gap-free per stream
// — the prefix property through the tree.
func TestAggregatorForwardsAllOpsInOrder(t *testing.T) {
	net := zeroNet()
	defer net.Close()
	sink := &aggSink{}
	cluster := eunomia.NewCluster(1, eunomia.Config{Partitions: 4, StableInterval: time.Millisecond}, sink.ship)
	defer cluster.Stop()
	root := fabric.EunomiaAddr(0, 0)
	fabric.ServeReplica(net, root, cluster.Replica(0))

	aggs := []*fabric.Aggregator{
		fabric.NewAggregator(fabric.AggregatorConfig{Fabric: net, Local: fabric.AggregatorAddr(0, 0), Parents: []fabric.Addr{root}}),
		fabric.NewAggregator(fabric.AggregatorConfig{Fabric: net, Local: fabric.AggregatorAddr(0, 1), Parents: []fabric.Addr{root}}),
	}
	defer func() {
		for _, a := range aggs {
			a.Close()
		}
	}()
	pair := []fabric.Addr{aggs[0].LocalAddr(), aggs[1].LocalAddr()}

	const per = 200
	var wg sync.WaitGroup
	clients := make([]*eunomia.Client, 4)
	for i := range clients {
		clients[i] = treeClient(net, types.PartitionID(i), pair, true)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for s := 1; s <= per; s++ {
				clients[i].Issue(0, &types.Update{Partition: types.PartitionID(i), Seq: uint64(s)})
			}
		}(i)
	}
	wg.Wait()
	waitFor(t, 10*time.Second, "all ops shipped", func() bool { return sink.len() == 4*per })
	for _, c := range clients {
		c.Close()
	}
	verifyStreams(t, sink.snapshot())

	var in, out int64
	for _, a := range aggs {
		in += a.BatchesIn.Load()
		out += a.BatchesOut.Load()
		if a.FlushLatency.Count() == 0 {
			t.Fatal("flush latency histogram empty")
		}
	}
	if in == 0 || out == 0 {
		t.Fatalf("fan-in counters empty: in=%d out=%d", in, out)
	}
}

// TestAggregatorAcksOnlyUpstreamDurableState checks transparency: a
// freshly buffered operation is not acknowledged until the parent has
// acknowledged the forwarded frame.
func TestAggregatorAcksOnlyUpstreamDurableState(t *testing.T) {
	net := zeroNet()
	defer net.Close()
	cluster := eunomia.NewCluster(1, eunomia.Config{Partitions: 1, StableInterval: time.Millisecond}, nil)
	defer cluster.Stop()
	root := fabric.EunomiaAddr(0, 0)
	fabric.ServeReplica(net, root, cluster.Replica(0))
	// The first flush tick is far off, so the frame's own acknowledgement
	// is the first one back.
	agg := fabric.NewAggregator(fabric.AggregatorConfig{
		Fabric: net, Local: fabric.AggregatorAddr(0, 0), Parents: []fabric.Addr{root},
		FlushInterval: 200 * time.Millisecond,
	})
	defer agg.Close()

	local := fabric.PartitionAddr(0, 0)
	rc := fabric.NewReplicaConn(net, local, agg.LocalAddr())
	reply := make(chan fabric.MultiAckMsg, 1)
	net.Register(local, func(m fabric.Message) {
		if ack, ok := m.Payload.(fabric.MultiAckMsg); ok {
			select {
			case reply <- ack:
			default:
			}
		}
		rc.HandleMessage(m)
	})

	// The frame's acknowledgement is sent on receipt, before the
	// aggregator can have forwarded it.
	net.Send(local, agg.LocalAddr(), fabric.MultiBatchMsg{Batches: []types.PartitionBatch{
		{Partition: 0, Ops: []*types.Update{{Partition: 0, Seq: 1, TS: 10}}},
	}})
	select {
	case ack := <-reply:
		if len(ack.Acks) != 1 || ack.Acks[0].TS != 0 {
			t.Fatalf("aggregator acknowledged unforwarded data: %+v", ack.Acks)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no acknowledgement for the batch")
	}
	// After a flush cycle and the replica's ack, the aggregator pushes
	// the watermark at the forwarded timestamp.
	waitFor(t, 5*time.Second, "upstream-durable watermark", func() bool {
		return rc.Watermark(0) == 10
	})
	if st := cluster.Replica(0).Stats(); st.OpsReceived != 1 {
		t.Fatalf("replica received %d ops, want 1", st.OpsReceived)
	}
}

// TestAggregatorTreeComposes runs a two-level tree — partitions →
// dual-homed leaf pair → root aggregator → replica — and checks exactly
// one copy of each operation ships, in order, even though every leaf
// forwards every stream (the root deduplicates by watermark, exactly as
// the replica would).
func TestAggregatorTreeComposes(t *testing.T) {
	net := zeroNet()
	defer net.Close()
	sink := &aggSink{}
	cluster := eunomia.NewCluster(1, eunomia.Config{Partitions: 4, StableInterval: time.Millisecond}, sink.ship)
	defer cluster.Stop()
	rootAddr := fabric.EunomiaAddr(0, 0)
	fabric.ServeReplica(net, rootAddr, cluster.Replica(0))

	rootAgg := fabric.NewAggregator(fabric.AggregatorConfig{
		Fabric: net, Local: fabric.AggregatorAddr(0, 2), Parents: []fabric.Addr{rootAddr}, Level: 2,
	})
	defer rootAgg.Close()
	leaves := []*fabric.Aggregator{
		fabric.NewAggregator(fabric.AggregatorConfig{
			Fabric: net, Local: fabric.AggregatorAddr(0, 0),
			Parents: []fabric.Addr{rootAgg.LocalAddr()}, RedundantParents: true,
		}),
		fabric.NewAggregator(fabric.AggregatorConfig{
			Fabric: net, Local: fabric.AggregatorAddr(0, 1),
			Parents: []fabric.Addr{rootAgg.LocalAddr()}, RedundantParents: true,
		}),
	}
	defer func() {
		for _, a := range leaves {
			a.Close()
		}
	}()

	pair := []fabric.Addr{leaves[0].LocalAddr(), leaves[1].LocalAddr()}
	clients := make([]*eunomia.Client, 4)
	for i := range clients {
		client := treeClient(net, types.PartitionID(i), pair, true)
		clients[i] = client
		for s := 1; s <= 50; s++ {
			client.Issue(0, &types.Update{Partition: types.PartitionID(i), Seq: uint64(s)})
		}
	}
	waitFor(t, 10*time.Second, "all ops shipped through two levels", func() bool { return sink.len() == 200 })
	for _, c := range clients {
		c.Close()
	}
	verifyStreams(t, sink.snapshot())
	if rootAgg.BatchesIn.Load() == 0 {
		t.Fatal("root aggregator saw no merged frames")
	}
}

// TestAggregatorCrashFailover kills one of a dual-homed aggregator pair
// mid-stream: every partition keeps a surviving path, so the stream
// drains with no gap and no duplicate at the replica, and the client
// buffers keep pruning (max-over-paths acknowledgement).
func TestAggregatorCrashFailover(t *testing.T) {
	net := zeroNet()
	defer net.Close()
	sink := &aggSink{}
	cluster := eunomia.NewCluster(1, eunomia.Config{Partitions: 4, StableInterval: time.Millisecond}, sink.ship)
	defer cluster.Stop()
	root := fabric.EunomiaAddr(0, 0)
	fabric.ServeReplica(net, root, cluster.Replica(0))

	aggA := fabric.NewAggregator(fabric.AggregatorConfig{Fabric: net, Local: fabric.AggregatorAddr(0, 0), Parents: []fabric.Addr{root}})
	aggB := fabric.NewAggregator(fabric.AggregatorConfig{Fabric: net, Local: fabric.AggregatorAddr(0, 1), Parents: []fabric.Addr{root}})
	defer aggB.Close()
	pair := []fabric.Addr{aggA.LocalAddr(), aggB.LocalAddr()}

	const per = 300
	clients := make([]*eunomia.Client, 4)
	for i := range clients {
		clients[i] = treeClient(net, types.PartitionID(i), pair, true)
	}
	emit := func(i, s int) {
		clients[i].Issue(0, &types.Update{Partition: types.PartitionID(i), Seq: uint64(s)})
	}
	for s := 1; s <= per/3; s++ {
		for i := range clients {
			emit(i, s)
		}
	}
	// Let some of the prefix drain, then crash one path.
	waitFor(t, 10*time.Second, "prefix shipped before the crash", func() bool { return sink.len() >= 40 })
	aggA.Close() // unregisters: sends to it now drop, acks stop — a crash
	for s := per/3 + 1; s <= per; s++ {
		for i := range clients {
			emit(i, s)
		}
	}
	waitFor(t, 20*time.Second, "full stream shipped through the survivor", func() bool { return sink.len() == 4*per })
	verifyStreams(t, sink.snapshot())

	// The surviving path's acknowledgements must have kept the client
	// buffers pruned (RedundantPaths: any path's watermark is the
	// service's).
	waitFor(t, 5*time.Second, "client buffers pruned", func() bool {
		for _, c := range clients {
			if c.Pending() > 0 {
				return false
			}
		}
		return true
	})
	for _, c := range clients {
		c.Close()
	}
}

// TestAggregatorRelaysHeartbeats checks liveness for idle partitions:
// marks ride the merged frames, so the replica's stable time keeps
// advancing past the last operation without any direct partition→replica
// message.
func TestAggregatorRelaysHeartbeats(t *testing.T) {
	net := zeroNet()
	defer net.Close()
	sink := &aggSink{}
	cluster := eunomia.NewCluster(1, eunomia.Config{Partitions: 1, StableInterval: time.Millisecond}, sink.ship)
	defer cluster.Stop()
	root := fabric.EunomiaAddr(0, 0)
	fabric.ServeReplica(net, root, cluster.Replica(0))
	agg := fabric.NewAggregator(fabric.AggregatorConfig{Fabric: net, Local: fabric.AggregatorAddr(0, 0), Parents: []fabric.Addr{root}})
	defer agg.Close()

	client := treeClient(net, 0, []fabric.Addr{agg.LocalAddr()}, true)
	defer client.Close()
	ts := client.Issue(0, &types.Update{Partition: 0, Seq: 1})

	// The op ships once its own mark-advanced stability covers it, and
	// stable time then keeps climbing on relayed marks alone.
	waitFor(t, 10*time.Second, "op shipped and stability past it", func() bool {
		st := cluster.Replica(0).Stats()
		return sink.len() == 1 && st.StableTime > ts
	})
}
