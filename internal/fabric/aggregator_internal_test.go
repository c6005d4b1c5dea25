package fabric

// White-box aggregator tests: flush framing decisions that need direct
// control of per-parent stream state (the black-box tree tests live in
// aggregator_test.go).

import (
	"sync"
	"testing"
	"time"

	"eunomia/internal/hlc"
	"eunomia/internal/types"
)

// recordingFabric captures sends in order without delivering them.
type recordingFabric struct {
	mu    sync.Mutex
	sends []any
}

func (f *recordingFabric) Register(Addr, Handler) {}
func (f *recordingFabric) Unregister(Addr)        {}
func (f *recordingFabric) Close()                 {}
func (f *recordingFabric) Send(_, _ Addr, payload any) {
	f.mu.Lock()
	f.sends = append(f.sends, payload)
	f.mu.Unlock()
}

func (f *recordingFabric) frames() []MultiBatchMsg {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []MultiBatchMsg
	for _, p := range f.sends {
		if m, ok := p.(MultiBatchMsg); ok {
			out = append(out, m)
		}
	}
	return out
}

func seqOps(pid types.PartitionID, from, to uint64) []*types.Update {
	var us []*types.Update
	for ts := from; ts <= to; ts++ {
		us = append(us, &types.Update{Partition: pid, TS: hlc.Timestamp(ts), Seq: ts})
	}
	return us
}

// TestAggregatorFlushPrioritizesReadyStreams pins the straggler rule: a
// stream whose unacknowledged window stalled retransmits in its own frame
// AFTER the frame carrying every ready stream's fresh suffix, so one
// laggard's window never delays the healthy streams sharing the FIFO
// connection to the parent.
func TestAggregatorFlushPrioritizesReadyStreams(t *testing.T) {
	fake := &recordingFabric{}
	parent := EunomiaAddr(0, 0)
	child := PartitionAddr(0, 0)
	a := NewAggregator(AggregatorConfig{
		Fabric: fake, Local: AggregatorAddr(0, 0),
		Parents: []Addr{parent}, FlushInterval: time.Hour,
	})
	defer a.Close()

	a.ingest(child, types.PartitionBatch{Partition: 1, Ops: seqOps(1, 1, 3)})
	a.ingest(child, types.PartitionBatch{Partition: 2, Ops: seqOps(2, 1, 3)})
	a.flush()
	if n := len(fake.frames()); n != 1 {
		t.Fatalf("first flush sent %d frames, want 1", n)
	}

	// The parent acknowledges stream 2 only: stream 1 becomes the laggard
	// with an in-flight window beyond the parent's watermark.
	a.handleParentAck(parent, MultiAckMsg{Acks: []types.PartitionMark{{Partition: 2, TS: 3}}})

	// Age the laggard's stall past the retransmit threshold.
	a.mu.Lock()
	a.streams[1].progress[0] = time.Now().Add(-2 * resendAfter)
	a.mu.Unlock()

	a.ingest(child, types.PartitionBatch{Partition: 2, Ops: seqOps(2, 4, 6)})
	a.flush()

	frames := fake.frames()[1:]
	if len(frames) != 2 {
		t.Fatalf("flush with a stalled laggard sent %d frames, want 2 (ready first, retransmit second)", len(frames))
	}
	ready, lagging := frames[0], frames[1]
	if len(ready.Batches) != 1 || ready.Batches[0].Partition != 2 {
		t.Fatalf("first frame should carry only the ready stream, got %+v", ready.Batches)
	}
	if got := len(ready.Batches[0].Ops); got != 3 {
		t.Fatalf("ready frame carries %d ops, want the 3 fresh ones", got)
	}
	if len(lagging.Batches) != 1 || lagging.Batches[0].Partition != 1 {
		t.Fatalf("second frame should carry the laggard's retransmit, got %+v", lagging.Batches)
	}
	if got := len(lagging.Batches[0].Ops); got != 3 {
		t.Fatalf("retransmit carries %d ops, want the full 3-op window", got)
	}
}

// TestAggregatorRelaysMarkOnlyOverParentHeldBase pins the tree's mark
// rule: a child's mark whose base is still only buffered here is neither
// relayed nor acknowledged (the child hears the parent-held watermark and
// sends a fresh mark next flush); once the parents acknowledge the base,
// a mark over it is relayed, in an entry with base 0, and acknowledged.
func TestAggregatorRelaysMarkOnlyOverParentHeldBase(t *testing.T) {
	fake := &recordingFabric{}
	parent := EunomiaAddr(0, 0)
	child := PartitionAddr(0, 0)
	a := NewAggregator(AggregatorConfig{
		Fabric: fake, Local: AggregatorAddr(0, 0),
		Parents: []Addr{parent}, FlushInterval: time.Hour,
	})
	defer a.Close()

	// A mark in the entry that carries its operations waits for them too.
	if w := a.ingest(child, types.PartitionBatch{Partition: 1, Ops: seqOps(1, 1, 3), Mark: 4}); w != 0 {
		t.Fatalf("mark over unacknowledged operations answered %v, want the parent-held 0", w)
	}
	if w := a.ingest(child, types.PartitionBatch{Partition: 1, Base: 3, Mark: 9}); w != 0 {
		t.Fatalf("mark above an unacknowledged base answered %v, want the parent-held 0", w)
	}
	a.flush()
	if m := relayedMarks(fake.frames()); len(m) != 0 {
		t.Fatalf("relayed %+v before the parents held the base", m)
	}

	a.handleParentAck(parent, MultiAckMsg{Acks: []types.PartitionMark{{Partition: 1, TS: 3}}})
	a.flush()
	if m := relayedMarks(fake.frames()); len(m) != 0 {
		t.Fatalf("a refused mark was relayed later: %+v", m)
	}
	if w := a.ingest(child, types.PartitionBatch{Partition: 1, Base: 3, Mark: 12}); w != 12 {
		t.Fatalf("mark over a parent-held base answered %v, want 12", w)
	}
	a.flush()
	frames := fake.frames()
	last := frames[len(frames)-1]
	if len(last.Batches) != 1 || last.Batches[0].Base != 0 || len(last.Batches[0].Ops) != 0 || last.Batches[0].Mark != 12 {
		t.Fatalf("after the base was acknowledged the flush sent %+v, want the mark 12 alone over base 0", last.Batches)
	}
}

// relayedMarks returns the entries of frames that carry a mark.
func relayedMarks(frames []MultiBatchMsg) []types.PartitionBatch {
	var out []types.PartitionBatch
	for _, f := range frames {
		for _, b := range f.Batches {
			if b.Mark > 0 {
				out = append(out, b)
			}
		}
	}
	return out
}
