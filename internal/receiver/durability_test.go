package receiver

import (
	"testing"
	"time"

	"eunomia/internal/types"
	"eunomia/internal/wal"
)

// recoverRecv builds a durable receiver over dir with the given sink.
func recoverRecv(t *testing.T, dir string, sink *applySink) *Receiver {
	t.Helper()
	r, err := Recover(Config{DC: 0, DCs: 3, Apply: sink.apply}, dir, wal.SyncOnFlush)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRecoverRebuildsQueuesAndSiteTime crashes a durable receiver with a
// mix of applied-and-durable, applied-but-not-durable, and still-pending
// updates, and checks the successor releases exactly what the crash left
// unsettled.
func TestRecoverRebuildsQueuesAndSiteTime(t *testing.T) {
	dir := t.TempDir()
	sink := newApplySink()
	r := recoverRecv(t, dir, sink)

	// Three updates from origin 1: u1 applied + durable, u2 applied but
	// never marked durable, u3 blocked on a missing payload (pending).
	u1, u2, u3 := ru(1, "a", 0, 10, 0), ru(1, "b", 0, 20, 0), ru(1, "c", 0, 30, 0)
	sink.setRefuse(u3.ID(), true)
	r.Enqueue(1, []*types.Update{u1, u2, u3})
	r.Flush()
	if got := len(sink.snapshot()); got != 2 {
		t.Fatalf("applied %d before crash, want 2", got)
	}
	r.MarkDurable(1, 10)
	if got := r.Retained(); got != 1 {
		t.Fatalf("retained %d applied-but-undurable entries, want 1 (u2)", got)
	}
	r.Close() // flushes and closes the store

	// Crash and recover: u2 and u3 must re-release, u1 must not. The
	// recovered receiver releases its queue at once; refusing u2 holds
	// the recovered state still for inspection.
	sink2 := newApplySink()
	sink2.setRefuse(u2.ID(), true)
	r2 := recoverRecv(t, dir, sink2)
	defer r2.Close()
	if got := r2.SiteTimeEntry(1); got != 10 {
		t.Fatalf("recovered SiteTime[1]=%v, want durable watermark 10", got)
	}
	if got := r2.QueueLen(1); got != 2 {
		t.Fatalf("recovered queue holds %d entries, want 2 (u2, u3)", got)
	}
	sink2.setRefuse(u2.ID(), false)
	r2.Flush()
	applied := sink2.snapshot()
	if len(applied) != 2 || applied[0].Key != "b" || applied[1].Key != "c" {
		keys := make([]types.Key, len(applied))
		for i, u := range applied {
			keys[i] = u.Key
		}
		t.Fatalf("recovered receiver applied %v, want [b c]", keys)
	}
	if got := r2.SiteTimeEntry(1); got != 30 {
		t.Fatalf("SiteTime[1]=%v after recovered release, want 30", got)
	}
}

// TestRecoverDropsDuplicateShipments checks the recovered lastEnq filter:
// an origin whose shipment is retransmitted after the restart (fabric
// at-least-once) must not enqueue twice.
func TestRecoverDropsDuplicateShipments(t *testing.T) {
	dir := t.TempDir()
	sink := newApplySink()
	r := recoverRecv(t, dir, sink)
	u := ru(1, "x", 0, 10, 0)
	r.Enqueue(1, []*types.Update{u})
	r.Close()

	sink2 := newApplySink()
	sink2.setRefuse(u.ID(), true) // keep the recovered entry queued
	r2 := recoverRecv(t, dir, sink2)
	defer r2.Close()
	r2.Enqueue(1, []*types.Update{u}) // the retransmitted shipment
	if got := r2.QueueLen(1); got != 1 {
		t.Fatalf("queue holds %d entries after duplicate shipment, want 1", got)
	}
	if got := r2.DupDropped.Load(); got != 1 {
		t.Fatalf("DupDropped=%d, want 1", got)
	}
}

// TestReceiverSnapshotCompaction fills the log past a tiny threshold,
// snapshots, and verifies recovery from the compacted store is complete —
// including entries that were applied but not durable at snapshot time.
func TestReceiverSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	sink := newApplySink()
	r := recoverRecv(t, dir, sink)

	var updates []*types.Update
	for i := 0; i < 50; i++ {
		updates = append(updates, ru(1, types.Key("k"+string(rune('a'+i%26)))+types.Key(string(rune('0'+i/26))), 0, uint64(10*(i+1)), 0))
	}
	r.Enqueue(1, updates)
	r.Flush()             // applies all 50
	r.MarkDurable(1, 250) // first 25 durable; 25 retained
	snapped, err := r.MaybeSnapshot(64)
	if err != nil {
		t.Fatal(err)
	}
	if !snapped {
		t.Fatal("log did not trigger a 64-byte-threshold snapshot")
	}
	r.Close()

	sink2 := newApplySink()
	sink2.setRefuse(updates[25].ID(), true) // hold the recovered queue for inspection
	r2 := recoverRecv(t, dir, sink2)
	defer r2.Close()
	if got := r2.SiteTimeEntry(1); got != 250 {
		t.Fatalf("recovered SiteTime[1]=%v, want 250", got)
	}
	if got := r2.QueueLen(1); got != 25 {
		t.Fatalf("recovered queue holds %d entries, want the 25 undurable ones", got)
	}
	sink2.setRefuse(updates[25].ID(), false)
	r2.Flush()
	if got := len(sink2.snapshot()); got != 25 {
		t.Fatalf("recovered receiver re-applied %d, want 25", got)
	}
}

// TestRecoverReleasesRestoredQueue: with no ticker to fall back on, a
// recovered receiver must release the entries replay restored on its
// own, without waiting for a new shipment to wake it.
func TestRecoverReleasesRestoredQueue(t *testing.T) {
	dir := t.TempDir()
	sink := newApplySink()
	u := ru(1, "x", 0, 10, 0)
	sink.setRefuse(u.ID(), true)
	r := recoverRecv(t, dir, sink)
	r.Enqueue(1, []*types.Update{u})
	r.Close()

	sink2 := newApplySink()
	r2 := recoverRecv(t, dir, sink2)
	defer r2.Close()
	deadline := time.Now().Add(time.Second)
	for r2.SiteTimeEntry(1) != 10 {
		if time.Now().After(deadline) {
			t.Fatalf("recovered entry not released within 1s (queue %d, applied %d)", r2.QueueLen(1), len(sink2.snapshot()))
		}
		time.Sleep(time.Millisecond)
	}
}
