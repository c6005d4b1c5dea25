package fabric_test

// The stream watermark over a pipelined conn: a flush ships its batch and
// the stream's mark back to back, and the replica adopts the mark only if
// it holds the batch's last operation (the mark's base).

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
// reports a watermark above y, which its mark right behind its batch at
// boundary k does. A mark that waits for the batch's acknowledgement
// goes out one period later.
func TestPipelinedStreamStableInOneFlush(t *testing.T) {
	const interval = 100 * time.Millisecond
	net := zeroNet()
	defer net.Close()
	cluster := eunomia.NewCluster(1, eunomia.Config{Partitions: 2, StableInterval: time.Hour}, nil)
	defer cluster.Stop()
	root := fabric.EunomiaAddr(0, 0)
	fabric.ServeReplica(net, root, cluster.Replica(0))
	c0, _ := pipelinedClient(net, net, 0, root, interval)
	defer c0.Close()
	c1, _ := pipelinedClient(net, net, 1, root, interval)
	defer c1.Close()

	// Start a period: both streams have reported once, and boundary k is
	// a whole period away.
	time.Sleep(clock.UntilBoundary(interval) + 10*time.Millisecond)
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
}

// batchDropper is a fabric that loses the first BatchMsg sent through it,
// as a route installed late or a suspended peer would, and delivers
// everything else — including the mark right behind the lost batch.
type batchDropper struct {
	fabric.Fabric
	mu      sync.Mutex
	dropped bool
}

func (d *batchDropper) Send(from, to fabric.Addr, payload any) {
	if _, ok := payload.(fabric.BatchMsg); ok {
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

// TestMarkAboveGapIsRefused loses the batch carrying an operation while
// the mark behind it arrives. The replica must refuse the mark — its
// watermark stays below the lost operation — and acknowledge only what it
// holds, so the client keeps the operation; the pipelined conn's stall
// resend then delivers it as a fresh operation, not a duplicate.
// Adopting the mark would filter the resend as a duplicate; acknowledging
// the offered mark would make the client prune the operation unsent.
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
