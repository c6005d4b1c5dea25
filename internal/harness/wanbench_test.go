package harness

import (
	"testing"
	"time"

	"eunomia/internal/compress"
	"eunomia/internal/workload"
)

// tinyWANOptions keeps the emulated-WAN cells CI-sized: a mild topology
// (low enough latency that a 300ms window sees remote visibility) and
// two datacenters' worth of every system.
func tinyWANOptions() WANBenchOptions {
	return WANBenchOptions{
		Duration:     300 * time.Millisecond,
		Warmup:       100 * time.Millisecond,
		DCs:          3,
		Partitions:   2,
		WorkersPerDC: 2,
		Topology:     "dc0-dc1:5ms±1ms,0.1%,50Mbps;*:10ms±2ms",
		Mix:          workload.Mix{ReadPct: 50},
	}
}

// TestWANBenchEverySystem boots each system as three TCP processes
// behind the shaper with skewed clocks, drives it, and checks that ops
// complete, bytes cross the wire, and remote visibility is observed.
func TestWANBenchEverySystem(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process-shaped deployments are slow")
	}
	o := tinyWANOptions()
	o.Schemes = []compress.Scheme{compress.Zstd}
	o.fill()
	for _, kind := range o.Systems {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			cell, err := wanBenchCell(o, kind, compress.Zstd)
			if err != nil {
				t.Fatal(err)
			}
			if cell.Ops == 0 {
				t.Fatalf("%s: no operations completed", kind)
			}
			if cell.WireBytes <= 0 {
				t.Fatalf("%s: no bytes crossed the wire (raw=%d wire=%d)", kind, cell.RawBytes, cell.WireBytes)
			}
			if cell.VisSamples == 0 {
				t.Fatalf("%s: no remote visibility recorded", kind)
			}
			// Visibility counts from arrival at the destination, so the
			// eventual and sequencer baselines legitimately sit near
			// zero, and so does EunomiaKV: its metadata leaves the origin
			// in the flush that ships the payload and crosses the same
			// delayed link. Only the global-stabilization systems owe a
			// waiting period there; EunomiaKV's wait is checked at the
			// origin instead: nothing may become visible remotely before
			// the origin's Eunomia has stabilized it.
			switch kind {
			case GentleRain, Cure:
				if cell.VisP50 < time.Millisecond {
					t.Fatalf("%s: visibility p50 %v, want a stabilization wait", kind, cell.VisP50)
				}
			case EunomiaKV:
				if cell.VisUnstable != 0 {
					t.Fatalf("%s: %d of %d remote updates visible before their origin stabilized them",
						kind, cell.VisUnstable, cell.VisSamples)
				}
			}
			t.Logf("%s/zstd: ops=%d bytes/op=%.0f ratio=%.2f visP50=%v visP90=%v",
				kind, cell.Ops, cell.BytesPerOp, cell.Ratio, cell.VisP50, cell.VisP90)
		})
	}
}

// TestWANBenchCompressionShrinksWire pins the matrix's core claim on one
// system: under the identical workload and topology, zstd moves fewer
// bytes per operation than the uncompressed wire.
func TestWANBenchCompressionShrinksWire(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process-shaped deployments are slow")
	}
	o := tinyWANOptions()
	o.Systems = []SystemKind{EunomiaKV}
	o.Schemes = []compress.Scheme{compress.Off, compress.Zstd}
	// Eager clients on uncapped links: paced CI-scale load ships frames
	// below the compression threshold, and this test is about bytes, not
	// visibility, so saturating batches is the point.
	o.ThinkTime = -1
	o.Topology = "dc0-dc1:5ms±1ms;*:10ms±2ms"
	res, err := WANBench(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(res.Cells))
	}
	off, zstd := res.Cells[0], res.Cells[1]
	if off.Scheme != compress.Off || zstd.Scheme != compress.Zstd {
		t.Fatalf("cell order: %v, %v", off.Scheme, zstd.Scheme)
	}
	if off.Ops == 0 || zstd.Ops == 0 {
		t.Fatalf("no ops: off=%d zstd=%d", off.Ops, zstd.Ops)
	}
	if zstd.BytesPerOp >= off.BytesPerOp {
		t.Fatalf("zstd %.0f bytes/op, uncompressed %.0f — compression did not shrink the wire",
			zstd.BytesPerOp, off.BytesPerOp)
	}
	if zstd.Ratio <= 1.1 {
		t.Fatalf("zstd compression ratio %.2f, want > 1.1", zstd.Ratio)
	}
	t.Logf("bytes/op off=%.0f zstd=%.0f (ratio %.2f)", off.BytesPerOp, zstd.BytesPerOp, zstd.Ratio)
}

// TestWANTreeBytesReduction is the acceptance measurement: on the
// MultiBatchMsg-heavy aggregator-tree hop, zstd must at least halve
// bytes-on-wire versus the uncompressed codec.
func TestWANTreeBytesReduction(t *testing.T) {
	o := WANTreeOptions{
		ServiceOptions: ServiceOptions{
			Duration: 300 * time.Millisecond,
			Warmup:   150 * time.Millisecond,
		},
		Partitions: 8,
		Schemes:    []compress.Scheme{compress.Off, compress.Zstd},
	}
	res, err := WANTreeBytes(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(res.Points))
	}
	off, zstd := res.Points[0], res.Points[1]
	if off.Ops == 0 || zstd.Ops == 0 {
		t.Fatalf("no ordered ops: off=%d zstd=%d", off.Ops, zstd.Ops)
	}
	if off.WireBytes == 0 || zstd.WireBytes == 0 {
		t.Fatalf("no wire traffic: off=%d zstd=%d", off.WireBytes, zstd.WireBytes)
	}
	if zstd.ReductionVsOff < 2 {
		t.Fatalf("zstd reduces aggregator-tree bytes-on-wire by %.2fx, want >= 2x (off %.0f B/op, zstd %.0f B/op)",
			zstd.ReductionVsOff, off.BytesPerOp, zstd.BytesPerOp)
	}
	t.Logf("aggregator-tree bytes/op: off=%.0f zstd=%.0f, reduction %.1fx (ratio %.1f)",
		off.BytesPerOp, zstd.BytesPerOp, zstd.ReductionVsOff, zstd.Ratio)
}
