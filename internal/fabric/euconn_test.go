package fabric_test

// The stream over a pipelined conn: a flush ships its operations and the
// stream's mark in one frame, and the replica ingests the entry only if it
// holds the stream up to the entry's base.

import (
	"sync"
	"testing"
	"time"

	"eunomia/internal/clock"
	"eunomia/internal/eunomia"
	"eunomia/internal/fabric"
	"eunomia/internal/hlc"
	"eunomia/internal/types"
)

// pipelinedClient starts partition pid's batching client with one
// pipelined conn to remote, sending over send and receiving its acks on
// recv (the two differ when a test interposes a lossy fabric).
func pipelinedClient(send, recv fabric.Fabric, pid types.PartitionID, remote fabric.Addr, interval time.Duration) (*eunomia.Client, *fabric.ReplicaConn) {
	local := fabric.PartitionAddr(0, pid)
	rc := fabric.NewReplicaConn(send, local, remote)
	recv.Register(local, func(m fabric.Message) { rc.HandleMessage(m) })
	cl := eunomia.NewClient(eunomia.ClientConfig{Partition: pid, BatchInterval: interval}, []eunomia.Conn{rc}, hlc.NewClock(nil))
	return cl, rc
}

// TestPipelinedStreamStableInOneFlush: an operation issued before flush
// boundary k is stable before boundary k+1. Stream 1 writes y and stream
// 0 then writes x > y; the stable time covers x only once stream 1
// reports a watermark above y, which the mark in its frame at boundary k
// does. A mark that waits for the batch's acknowledgement goes out one
// period later. That flush puts one frame per conn on the network, and
// the replica one acknowledgement.
func TestPipelinedStreamStableInOneFlush(t *testing.T) {
	const interval = 100 * time.Millisecond
	net := zeroNet()
	defer net.Close()
	cluster := eunomia.NewCluster(1, eunomia.Config{Partitions: 2, StableInterval: time.Hour}, nil)
	defer cluster.Stop()
	root := fabric.EunomiaAddr(0, 0)
	fabric.ServeReplica(net, root, cluster.Replica(0))
	c0, rc0 := pipelinedClient(net, net, 0, root, interval)
	defer c0.Close()
	c1, rc1 := pipelinedClient(net, net, 1, root, interval)
	defer c1.Close()

	// Start a period: both streams have reported once, and boundary k is
	// a whole period away.
	time.Sleep(clock.UntilBoundary(interval) + 10*time.Millisecond)
	sent := net.Sent.Load()
	y := c1.Issue(0, &types.Update{Partition: 1, Seq: 1})
	x := c0.Issue(y, &types.Update{Partition: 0, Seq: 1})
	boundaryK := time.Now().Truncate(interval).Add(interval)

	// Slack of most of a period absorbs scheduling stalls; the ack-gated
	// rule needs a whole period more.
	deadline := boundaryK.Add(interval * 9 / 10)
	for cluster.Replica(0).Stats().StableTime < x {
		if time.Now().After(deadline) {
			t.Fatalf("stable %v still below %v most of a period after the flush that shipped it",
				cluster.Replica(0).Stats().StableTime, x)
		}
		time.Sleep(time.Millisecond)
	}
	waitFor(t, interval/4, "both acknowledgements", func() bool { return rc0.Watermark(0) >= x && rc1.Watermark(1) >= y })
	if n := net.Sent.Load() - sent; time.Now().Before(boundaryK.Add(interval / 2)) {
		if n != 4 {
			t.Fatalf("the busy flush put %d messages on the network, want 4: one frame per conn and its acknowledgement", n)
		}
	} else {
		t.Logf("frame count not checked: read %d sends after the next flush may have begun", n)
	}
}

// batchDropper is a fabric that loses the first frame carrying
// operations sent through it, as a route installed late or a suspended
// peer would, and delivers everything else.
type batchDropper struct {
	fabric.Fabric
	mu      sync.Mutex
	dropped bool
}

func (d *batchDropper) Send(from, to fabric.Addr, payload any) {
	if m, ok := payload.(fabric.MultiBatchMsg); ok && carriesOps(m) {
		d.mu.Lock()
		drop := !d.dropped
		d.dropped = true
		d.mu.Unlock()
		if drop {
			return
		}
	}
	d.Fabric.Send(from, to, payload)
}

func carriesOps(m fabric.MultiBatchMsg) bool {
	for _, b := range m.Batches {
		if len(b.Ops) > 0 {
			return true
		}
	}
	return false
}

// TestMarkAboveGapIsRefused loses the frame carrying an operation while
// the marks of the flushes behind it arrive, over the streamed operation
// as their base. The replica must refuse them — its watermark stays below
// the lost operation — and acknowledge only what it holds, so the client
// keeps the operation; the pipelined conn's stall resend then delivers it
// as a fresh operation, not a duplicate. Adopting a mark would filter the
// resend as a duplicate; acknowledging the offered mark would make the
// client prune the operation unsent.
func TestMarkAboveGapIsRefused(t *testing.T) {
	net := zeroNet()
	defer net.Close()
	sink := &aggSink{}
	cluster := eunomia.NewCluster(1, eunomia.Config{Partitions: 1, StableInterval: time.Millisecond}, sink.ship)
	defer cluster.Stop()
	r := cluster.Replica(0)
	root := fabric.EunomiaAddr(0, 0)
	fabric.ServeReplica(net, root, r)
	cl, rc := pipelinedClient(&batchDropper{Fabric: net}, net, 0, root, 5*time.Millisecond)
	defer cl.Close()

	op := cl.Issue(0, &types.Update{Partition: 0, Seq: 1})
	// The stall resend fires 250 ms after the loss; look well before.
	waitFor(t, 150*time.Millisecond, "a refused mark", func() bool { return r.Stats().MarksRefused > 0 })
	if st := r.Stats(); st.StableTime >= op {
		t.Fatalf("stable %v reached the lost operation %v", st.StableTime, op)
	}
	if w := rc.Watermark(0); w >= op {
		t.Fatalf("acknowledged %v, at or above the lost operation %v", w, op)
	}
	if cl.Pending() != 1 {
		t.Fatalf("client pending = %d, want the lost operation kept", cl.Pending())
	}

	waitFor(t, 2*time.Second, "the resent operation shipped", func() bool { return sink.len() == 1 })
	if st := r.Stats(); st.OpsReceived != 1 || st.Duplicates != 0 {
		t.Fatalf("received %d, duplicates %d; want 1 and 0", st.OpsReceived, st.Duplicates)
	}
	if got := sink.snapshot()[0].TS; got != op {
		t.Fatalf("shipped %v, want %v", got, op)
	}
}

// TestBatchAboveGapIsRefused loses the frame carrying one operation and
// issues a second in a later flush. The conn streams only the second,
// over the first as its base, so the replica must refuse that frame
// rather than ingest it above the gap: ingesting it would move the
// stream's watermark past the lost operation, the client would prune
// both, and the stall resend would be filtered as a duplicate. The
// resend instead delivers both, once each, in timestamp order.
func TestBatchAboveGapIsRefused(t *testing.T) {
	net := zeroNet()
	defer net.Close()
	sink := &aggSink{}
	cluster := eunomia.NewCluster(1, eunomia.Config{Partitions: 1, StableInterval: time.Millisecond}, sink.ship)
	defer cluster.Stop()
	r := cluster.Replica(0)
	root := fabric.EunomiaAddr(0, 0)
	fabric.ServeReplica(net, root, r)
	cl, _ := pipelinedClient(&batchDropper{Fabric: net}, net, 0, root, 5*time.Millisecond)
	defer cl.Close()

	op1 := cl.Issue(0, &types.Update{Partition: 0, Seq: 1})
	time.Sleep(20 * time.Millisecond) // a later flush
	op2 := cl.Issue(0, &types.Update{Partition: 0, Seq: 2})
	waitFor(t, 150*time.Millisecond, "a refused frame", func() bool { return r.Stats().MarksRefused > 0 })

	waitFor(t, 2*time.Second, "both operations shipped", func() bool { return sink.len() >= 2 })
	time.Sleep(20 * time.Millisecond) // nothing more may follow
	got := sink.snapshot()
	if len(got) != 2 || got[0].TS != op1 || got[1].TS != op2 {
		t.Fatalf("shipped %v, want [%v %v]", got, op1, op2)
	}
	if st := r.Stats(); st.OpsReceived != 2 {
		t.Fatalf("replica received %d operations, want 2", st.OpsReceived)
	}
	if n := cl.Pending(); n != 0 {
		t.Fatalf("client pending = %d after both shipped, want 0", n)
	}
}
