package transport

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"eunomia/internal/eunomia"
	"eunomia/internal/fabric"
	"eunomia/internal/hlc"
	"eunomia/internal/types"
	"eunomia/internal/wan"
	"eunomia/internal/wire"
)

type testMsg struct{ N int }

// WireTag implements wire.Marshaler.
func (m testMsg) WireTag() wire.Tag { return wire.TagTest }

// AppendWire implements wire.Marshaler.
func (m testMsg) AppendWire(b []byte) []byte { return wire.AppendUvarint(b, uint64(m.N)) }

func init() {
	wire.Register(wire.TagTest, func(d *wire.Dec) any { return testMsg{N: int(d.Uvarint())} })
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("condition not reached within %v", timeout)
}

func listen(t *testing.T, cfg Config) *TCP {
	t.Helper()
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	f, err := Listen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// collector gathers delivered payloads in arrival order.
type collector struct {
	mu   sync.Mutex
	msgs []fabric.Message
}

func (c *collector) handle(m fabric.Message) {
	c.mu.Lock()
	c.msgs = append(c.msgs, m)
	c.mu.Unlock()
}

func (c *collector) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

func (c *collector) snapshot() []fabric.Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]fabric.Message(nil), c.msgs...)
}

func TestFIFOAcrossSockets(t *testing.T) {
	server := listen(t, Config{})
	defer server.Close()
	dst := fabric.ReceiverAddr(1)
	col := &collector{}
	server.Register(dst, col.handle)

	client := listen(t, Config{Routes: map[fabric.Addr]string{dst: server.Addr().String()}})
	defer client.Close()

	src := fabric.PartitionAddr(0, 0)
	const n = 500
	for i := 0; i < n; i++ {
		client.Send(src, dst, testMsg{N: i})
	}
	waitFor(t, 5*time.Second, func() bool { return col.len() == n })
	for i, m := range col.snapshot() {
		if m.Payload.(testMsg).N != i {
			t.Fatalf("FIFO broken at %d: got %v", i, m.Payload)
		}
		if m.From != src || m.To != dst {
			t.Fatalf("addressing corrupted: %v→%v", m.From, m.To)
		}
	}
}

// TestShapedLinkPipelinesFrames: a WAN-shaped link delays every frame by
// its link delay but carries frames back to back, as a real pipe does —
// the delay line dispatches each frame at arrival plus its delay, in
// order, instead of holding the connection for each frame's delay in
// turn (which capped a *:8ms link at 125 frames/s).
func TestShapedLinkPipelinesFrames(t *testing.T) {
	const delay = 8 * time.Millisecond
	topo, err := wan.ParseTopology("*:8ms")
	if err != nil {
		t.Fatal(err)
	}
	server := listen(t, Config{WANShaper: wan.NewShaper(topo, 1)})
	defer server.Close()
	dst := fabric.ReceiverAddr(1)
	var mu sync.Mutex
	var got []int
	var late []time.Duration // arrival − send, per frame
	server.Register(dst, func(m fabric.Message) {
		mu.Lock()
		got = append(got, m.Payload.(testMsg).N)
		late = append(late, time.Since(m.SentAt))
		mu.Unlock()
	})
	client := listen(t, Config{Routes: map[fabric.Addr]string{dst: server.Addr().String()}})
	defer client.Close()

	const n = 2000
	src := fabric.PartitionAddr(0, 0)
	start := time.Now()
	for i := 0; i < n; i++ {
		client.Send(src, dst, testMsg{N: i})
	}
	waitFor(t, 20*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == n
	})
	elapsed := time.Since(start)
	if rate := float64(n) / elapsed.Seconds(); rate < 1000 {
		t.Fatalf("shaped link carried %.0f frames/s, want at least 1000", rate)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := range got {
		if got[i] != i {
			t.Fatalf("FIFO broken at %d: got frame %d", i, got[i])
		}
		if late[i] < delay {
			t.Fatalf("frame %d arrived %v after its send, under the %v link delay", i, late[i], delay)
		}
	}
}

func TestLoopbackShortCircuit(t *testing.T) {
	f := listen(t, Config{})
	defer f.Close()
	dst := fabric.EunomiaAddr(0, 0)
	col := &collector{}
	f.Register(dst, col.handle)
	f.Send(fabric.PartitionAddr(0, 0), dst, testMsg{N: 7})
	waitFor(t, 2*time.Second, func() bool { return col.len() == 1 })
	if got := col.snapshot()[0].Payload.(testMsg).N; got != 7 {
		t.Fatalf("loopback payload = %d", got)
	}
}

func TestUnroutedSendsDrop(t *testing.T) {
	f := listen(t, Config{})
	defer f.Close()
	f.Send(fabric.PartitionAddr(0, 0), fabric.ReceiverAddr(9), testMsg{N: 1})
	if f.Dropped.Load() != 1 {
		t.Fatalf("Dropped = %d, want 1", f.Dropped.Load())
	}
}

// TestClientReconnectAfterServerRestart kills the serving fabric mid-stream
// and brings a fresh one up on the same port. The sender's unacknowledged
// window must be retransmitted on the new connection: every message is
// delivered (duplicates allowed — the restarted process lost its duplicate
// filter) and per-sender FIFO order is preserved.
func TestClientReconnectAfterServerRestart(t *testing.T) {
	server := listen(t, Config{})
	port := server.Addr().String()
	dst := fabric.ReceiverAddr(1)
	col := &collector{}
	server.Register(dst, col.handle)

	client := listen(t, Config{Routes: map[fabric.Addr]string{dst: port}})
	defer client.Close()
	src := fabric.PartitionAddr(0, 0)

	const n = 400
	half := n / 2
	for i := 0; i < half; i++ {
		client.Send(src, dst, testMsg{N: i})
	}
	waitFor(t, 5*time.Second, func() bool { return col.len() >= half/2 })

	// Hard restart: the old incarnation dies with frames possibly
	// delivered-but-unacknowledged; the new one starts with empty state.
	server.Close()
	server2 := listen(t, Config{Listen: port})
	defer server2.Close()
	server2.Register(dst, col.handle)

	for i := half; i < n; i++ {
		client.Send(src, dst, testMsg{N: i})
	}

	seen := func() map[int]bool {
		s := make(map[int]bool)
		for _, m := range col.snapshot() {
			s[m.Payload.(testMsg).N] = true
		}
		return s
	}
	waitFor(t, 10*time.Second, func() bool { return len(seen()) == n })

	// FIFO must survive the retransmission: the delivered sequence is
	// nondecreasing except for the replayed suffix, i.e. every message i
	// appears, and no message appears before a *later* first appearance
	// of a smaller one within one incarnation. The simple strong check:
	// first occurrences are in ascending order.
	first := make(map[int]int)
	for pos, m := range col.snapshot() {
		v := m.Payload.(testMsg).N
		if _, ok := first[v]; !ok {
			first[v] = pos
		}
	}
	for i := 1; i < n; i++ {
		if first[i] < first[i-1] {
			t.Fatalf("message %d first delivered before %d", i, i-1)
		}
	}
}

// startReplica serves a single-replica Eunomia service on a TCP fabric.
func startReplica(t *testing.T, partitions int) (*TCP, *eunomia.Cluster, *sink) {
	t.Helper()
	s := &sink{}
	cluster := eunomia.NewCluster(1, eunomia.Config{
		Partitions:     partitions,
		StableInterval: time.Millisecond,
	}, s.ship)
	f := listen(t, Config{})
	fabric.ServeReplica(f, fabric.EunomiaAddr(0, 0), cluster.Replica(0))
	return f, cluster, s
}

type sink struct {
	mu  sync.Mutex
	ops []*types.Update
}

func (s *sink) ship(_ types.ReplicaID, ops []*types.Update) {
	s.mu.Lock()
	s.ops = append(s.ops, ops...)
	s.mu.Unlock()
}

func (s *sink) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ops)
}

func (s *sink) snapshot() []*types.Update {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*types.Update(nil), s.ops...)
}

func dialReplica(t *testing.T, serverAddr string, p types.PartitionID) (*TCP, *fabric.ReplicaConn) {
	t.Helper()
	remote := fabric.EunomiaAddr(0, 0)
	client := listen(t, Config{Routes: map[fabric.Addr]string{remote: serverAddr}})
	local := fabric.PartitionAddr(0, p)
	conn := fabric.NewReplicaConn(client, local, remote)
	client.Register(local, func(m fabric.Message) { conn.HandleMessage(m) })
	return client, conn
}

// TestDuplicateResendFilteredByWatermark resends the same batch several
// times — the at-least-once pattern a reconnecting client produces — and
// restarts the serving fabric in between; the replica must ingest each
// operation exactly once, filtering replays by partition watermark. The
// conn itself streams each operation once, so the resends go out as raw
// frames; the conn still tracks the acknowledgements they draw.
func TestDuplicateResendFilteredByWatermark(t *testing.T) {
	f, cluster, shipped := startReplica(t, 1)
	defer cluster.Stop()
	port := f.Addr().String()

	client, conn := dialReplica(t, port, 0)
	defer client.Close()

	batch := []*types.Update{
		{Partition: 0, Seq: 1, TS: 10, Key: "a", Value: []byte("x")},
		{Partition: 0, Seq: 2, TS: 20, Key: "b"},
	}
	resend := func() {
		client.Send(fabric.PartitionAddr(0, 0), conn.Remote(), fabric.MultiBatchMsg{Batches: []types.PartitionBatch{{Partition: 0, Ops: batch}}})
	}
	for i := 0; i < 3; i++ { // at-least-once resend
		resend()
	}
	waitFor(t, 5*time.Second, func() bool { return conn.Watermark(0) == 20 })

	// Restart the serving fabric (same replica process state): the
	// client's retransmitted frames and further resends must still be
	// deduplicated by the watermark, not the transport.
	f.Close()
	f2 := listen(t, Config{Listen: port})
	defer f2.Close()
	fabric.ServeReplica(f2, fabric.EunomiaAddr(0, 0), cluster.Replica(0))

	for i := 0; i < 3; i++ {
		resend()
	}
	if _, err := conn.NewBatch(types.PartitionBatch{Partition: 0, Base: 20, Mark: 30}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return conn.Watermark(0) == 30 })

	waitFor(t, 5*time.Second, func() bool { return shipped.len() == 2 })
	time.Sleep(20 * time.Millisecond)
	if shipped.len() != 2 {
		t.Fatalf("duplicates shipped: %d ops", shipped.len())
	}
	st := cluster.Replica(0).Stats()
	if st.OpsReceived != 2 {
		t.Fatalf("OpsReceived = %d, want 2", st.OpsReceived)
	}
	if st.Duplicates == 0 {
		t.Fatal("resends were sent but none counted as duplicates")
	}
	got := shipped.snapshot()
	if got[0].Key != "a" || string(got[0].Value) != "x" || got[1].Key != "b" {
		t.Fatalf("payloads corrupted over the wire: %v", got)
	}
}

// TestPipelinedProtocolOrdering runs the real partition-side batching
// clients in pipelined mode — flushes stream without waiting for
// acknowledgements — and verifies the full §3 pipeline over actual
// sockets: every operation is ordered, exactly once, in timestamp order,
// and the asynchronous watermarks eventually drain the clients' windows.
func TestPipelinedProtocolOrdering(t *testing.T) {
	const partitions = 3
	f, cluster, shipped := startReplica(t, partitions)
	defer cluster.Stop()
	defer f.Close()

	clients := make([]*eunomia.Client, partitions)
	fabrics := make([]*TCP, partitions)
	for i := range clients {
		cf, conn := dialReplica(t, f.Addr().String(), types.PartitionID(i))
		fabrics[i] = cf
		defer cf.Close()
		clients[i] = eunomia.NewClient(eunomia.ClientConfig{
			Partition:     types.PartitionID(i),
			BatchInterval: time.Millisecond,
		}, []eunomia.Conn{conn}, hlc.NewClock(nil))
	}

	const per = 100
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for s := 1; s <= per; s++ {
				clients[i].Issue(0, &types.Update{Partition: types.PartitionID(i), Seq: uint64(s)})
			}
		}(i)
	}
	wg.Wait()
	waitFor(t, 10*time.Second, func() bool { return shipped.len() == partitions*per })

	// Acks flow back asynchronously; the windows must fully drain.
	for _, c := range clients {
		c := c
		waitFor(t, 5*time.Second, func() bool { return c.Pending() == 0 })
		c.Close()
	}

	got := shipped.snapshot()
	if len(got) != partitions*per {
		t.Fatalf("shipped %d ops, want %d (duplicates or loss)", len(got), partitions*per)
	}
	for i := 1; i < len(got); i++ {
		if got[i].TS < got[i-1].TS {
			t.Fatalf("pipelined protocol broke timestamp order at %d", i)
		}
	}
}

// TestPipelinedFlushDoesNotWaitForServer stalls the replica handler and
// checks a pipelined NewBatch still returns immediately — the whole point
// of replacing the one-request-one-response protocol.
func TestPipelinedFlushDoesNotWaitForServer(t *testing.T) {
	server := listen(t, Config{})
	defer server.Close()
	remote := fabric.EunomiaAddr(0, 0)
	block := make(chan struct{})
	server.Register(remote, func(fabric.Message) { <-block })
	defer close(block)

	client, conn := dialReplica(t, server.Addr().String(), 0)
	defer client.Close()

	start := time.Now()
	for i := 0; i < 10; i++ {
		if _, err := conn.NewBatch(types.PartitionBatch{Partition: 0, Ops: []*types.Update{{Partition: 0, Seq: uint64(i + 1), TS: hlc.Timestamp(i + 1)}}}); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("pipelined sends blocked on the server for %v", elapsed)
	}
}

func TestStoppedReplicaErrorsPropagate(t *testing.T) {
	f, cluster, _ := startReplica(t, 1)
	defer f.Close()
	cluster.Replica(0).Stop()

	client, conn := dialReplica(t, f.Addr().String(), 0)
	defer client.Close()
	// First send can't know yet; the nack makes the failure sticky.
	_, _ = conn.NewBatch(types.PartitionBatch{Partition: 0, Ops: []*types.Update{{Partition: 0, Seq: 1, TS: 1}}})
	waitFor(t, 5*time.Second, func() bool {
		_, err := conn.NewBatch(types.PartitionBatch{Partition: 0})
		return err != nil
	})
}

func TestDialFailureBuffersAndDrops(t *testing.T) {
	// A route to a dead port must not block Send (it buffers in the
	// window) and must not wedge Close.
	dst := fabric.ReceiverAddr(1)
	f := listen(t, Config{Routes: map[fabric.Addr]string{dst: "127.0.0.1:1"}, Window: 8})
	for i := 0; i < 8; i++ {
		f.Send(fabric.PartitionAddr(0, 0), dst, testMsg{N: i})
	}
	done := make(chan struct{})
	go func() { f.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close wedged on an undialable peer")
	}
}

// TestListenerAddr keeps the ":0" ergonomics working.
func TestListenerAddr(t *testing.T) {
	f := listen(t, Config{})
	defer f.Close()
	if _, ok := f.Addr().(*net.TCPAddr); !ok {
		t.Fatalf("Addr() = %T", f.Addr())
	}
	if fmt.Sprint(f.Addr()) == "" {
		t.Fatal("empty listen address")
	}
}

// TestPeerStatsCountersAdvance checks the peer-window counters exported
// for metrics: sends advance Sent, acknowledgements advance AckedCum and
// drain InFlight, and a server restart mid-stream produces a nonzero
// Retransmits count.
func TestPeerStatsCountersAdvance(t *testing.T) {
	server := listen(t, Config{})
	port := server.Addr().String()
	dst := fabric.ReceiverAddr(1)
	col := &collector{}
	server.Register(dst, col.handle)

	client := listen(t, Config{Routes: map[fabric.Addr]string{dst: port}})
	defer client.Close()
	src := fabric.PartitionAddr(0, 0)

	const n = 100
	for i := 0; i < n; i++ {
		client.Send(src, dst, testMsg{N: i})
	}
	waitFor(t, 5*time.Second, func() bool { return col.len() == n })
	waitFor(t, 5*time.Second, func() bool {
		stats := client.PeerStats()
		return len(stats) == 1 && stats[0].InFlight == 0 && stats[0].AckedCum == n
	})
	stats := client.PeerStats()
	if stats[0].Peer != port {
		t.Fatalf("peer label %q, want %q", stats[0].Peer, port)
	}
	if stats[0].Sent != n {
		t.Fatalf("Sent=%d, want %d", stats[0].Sent, n)
	}
	if stats[0].Retransmits != 0 {
		t.Fatalf("Retransmits=%d on a healthy stream, want 0", stats[0].Retransmits)
	}

	// Kill a server with frames in flight; the reconnect retransmits the
	// unacknowledged suffix and the counter must say so. The server in
	// between holds delivery, so it never reads or acknowledges: every
	// frame written to its socket is still in flight when it dies.
	server.Close()
	held := listen(t, Config{Listen: port, HoldDelivery: true})
	for i := n; i < 2*n; i++ {
		client.Send(src, dst, testMsg{N: i})
	}
	waitFor(t, 5*time.Second, func() bool {
		client.mu.Lock()
		p := client.peers[port]
		client.mu.Unlock()
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.maxSent == 2*n
	})
	held.Close()
	server2 := listen(t, Config{Listen: port})
	defer server2.Close()
	server2.Register(dst, col.handle)
	waitFor(t, 10*time.Second, func() bool {
		stats := client.PeerStats()
		return len(stats) == 1 && stats[0].InFlight == 0
	})
	if got := client.PeerStats()[0].Retransmits; got == 0 {
		t.Fatal("server restart mid-stream produced no counted retransmissions")
	}
}
