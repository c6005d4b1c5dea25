package simnet

import (
	"testing"
	"time"

	"eunomia/internal/fabric"
	"eunomia/internal/hlc"
	"eunomia/internal/types"
	"eunomia/internal/wan"
)

// wanBatch builds a wire-encodable cross-DC payload whose modeled frame
// size the bandwidth queue can chew on.
func wanBatch(n int) fabric.MultiBatchMsg {
	ops := make([]*types.Update, n)
	for i := range ops {
		ops[i] = &types.Update{
			Partition: 1, Seq: uint64(i + 1),
			TS: hlc.Timestamp(1753900000000000+i) << 16,
		}
	}
	return fabric.MultiBatchMsg{Batches: []types.PartitionBatch{{Partition: 1, Ops: ops}}}
}

// TestShapeWANCrossDCOnly pins the overlay contract: cross-datacenter
// sends over a configured link take the shaped delay, intra-datacenter
// sends and unconfigured pairs keep the base DelayFunc.
func TestShapeWANCrossDCOnly(t *testing.T) {
	topo, err := wan.ParseTopology("dc0-dc1:60ms")
	if err != nil {
		t.Fatal(err)
	}
	n := New(nil) // zero base delay everywhere
	defer n.Close()
	n.ShapeWAN(wan.NewShaper(topo, 1), nil)

	h, snap := collector()
	shaped := Addr{DC: 1, Name: "shaped"}
	local := Addr{DC: 0, Name: "local"}
	unshaped := Addr{DC: 2, Name: "unshaped"}
	n.Register(shaped, h)
	n.Register(local, h)
	n.Register(unshaped, h)

	src := Addr{DC: 0, Name: "src"}
	start := time.Now()
	n.Send(src, shaped, "cross")
	n.Send(src, local, "intra")
	n.Send(src, unshaped, "fallback")

	// The intra-DC and unconfigured-pair sends keep the zero base delay
	// and must land while the shaped frame is still in flight.
	msgs := waitLen(t, snap, 2, time.Second)
	for _, m := range msgs[:2] {
		if m.Payload == "cross" {
			t.Fatalf("shaped cross-DC frame arrived among the unshaped ones after %v", time.Since(start))
		}
	}
	msgs = waitLen(t, snap, 3, time.Second)
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Fatalf("shaped frame delivered after %v, want >= 60ms", elapsed)
	}
	if msgs[2].Payload != "cross" {
		t.Fatalf("delivery order %v, want the shaped frame last", msgs)
	}
}

// TestShapeWANBandwidthDelaysMultiBatch pins the serialization model end
// to end: a MultiBatchMsg-sized frame on a bandwidth-capped link is
// delayed by at least its modeled wire time, a sub-frame-size control
// message is not.
func TestShapeWANBandwidthDelaysMultiBatch(t *testing.T) {
	topo, err := wan.ParseTopology("dc0-dc1:5ms,2Mbps")
	if err != nil {
		t.Fatal(err)
	}
	n := New(nil)
	defer n.Close()
	n.ShapeWAN(wan.NewShaper(topo, 1), nil)

	batch := wanBatch(2000)
	size := WireSize(batch)
	if size < 10<<10 {
		t.Fatalf("batch models only %d bytes, want a fat frame", size)
	}
	ser := time.Duration(float64(size) * 8 / 2e6 * float64(time.Second))

	h, snap := collector()
	dst := Addr{DC: 1, Name: "dst"}
	n.Register(dst, h)
	src := Addr{DC: 0, Name: "src"}

	start := time.Now()
	n.Send(src, dst, batch)
	waitLen(t, snap, 1, 5*time.Second)
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond+ser {
		t.Fatalf("fat frame delivered after %v, want >= 5ms + %v serialization", elapsed, ser)
	}

	// The pipe has drained; a tiny control frame pays only propagation
	// and its own (negligible) serialization, far below the batch's.
	start = time.Now()
	n.Send(src, dst, fabric.MultiBatchMsg{Batches: []types.PartitionBatch{{Partition: 1, Mark: 1}}})
	waitLen(t, snap, 2, 5*time.Second)
	if elapsed := time.Since(start); elapsed > ser {
		t.Fatalf("small frame took %v, at least the fat frame's serialization %v — cap misapplied", elapsed, ser)
	}
}

// TestShapeWANReproducible pins seeded reproducibility at the fabric
// level: two networks shaped with the same topology and seed deliver a
// jittery, lossy sequence with identical modeled delays (measured via
// the shaper directly, since wall-clock delivery adds scheduler noise).
func TestShapeWANReproducible(t *testing.T) {
	run := func(seed int64) []time.Duration {
		topo, err := wan.ParseTopology("dc0-dc1:20ms±10ms,5%")
		if err != nil {
			t.Fatal(err)
		}
		s := wan.NewShaper(topo, seed)
		now := time.Unix(0, 0)
		var ds []time.Duration
		for i := 0; i < 100; i++ {
			d, ok := s.PlanReliable(0, 1, 100, now)
			if !ok {
				t.Fatal("link not found")
			}
			ds = append(ds, d)
		}
		return ds
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
