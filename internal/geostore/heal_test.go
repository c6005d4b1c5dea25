package geostore

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"eunomia/internal/fabric"
	"eunomia/internal/types"
	"eunomia/internal/wal"
)

// severPayloads drops (or, with drop false, restores) payload replication
// dc1→dc0 while metadata keeps flowing: the fire-and-forget payload
// batches vanish, the way a real crash loses payloads the origin already
// pruned on transport acknowledgement.
func severPayloads(s *splitDC, drop bool) {
	for p := 0; p < s.partsNC.Partitions; p++ {
		s.net.SetDrop(fabric.PartitionAddr(1, types.PartitionID(p)), fabric.PartitionAddr(0, types.PartitionID(p)), drop)
	}
}

// parkLostPayloads writes lost-a (twice; v1 is superseded by v2) and
// lost-b at dc1 with payload replication severed, and waits until the
// three releases park at dc0's applier.
func parkLostPayloads(t *testing.T, s *splitDC) {
	t.Helper()
	severPayloads(s, true)
	c := s.origin.NewClient()
	for _, w := range []struct{ key, val string }{{"lost-a", "v1"}, {"lost-a", "v2"}, {"lost-b", "payload-b"}} {
		if err := c.Update(types.Key(w.key), []byte(w.val)); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, 10*time.Second, "releases to park at the applier", func() bool {
		return s.parts.ApplierPending() >= 3
	})
	if v, _ := s.parts.NewClient().Read("lost-b"); v != nil {
		t.Fatalf("payload leaked through the drop: %q", v)
	}
}

// waitHealed waits until lost-a reads v2 and lost-b its payload at the
// restarted node, its applier drains, and the warm-up traffic survived.
func waitHealed(t *testing.T, s *splitDC) {
	t.Helper()
	r := s.parts.NewClient()
	waitUntil(t, 20*time.Second, "pruned payloads to heal", func() bool {
		a, _ := r.Read("lost-a")
		b, _ := r.Read("lost-b")
		return string(a) == "v2" && string(b) == "payload-b"
	})
	waitUntil(t, 10*time.Second, "applier queue to drain", func() bool {
		return s.parts.ApplierPending() == 0
	})
	if v, _ := r.Read("warm-data0"); string(v) != "payload0" {
		t.Fatalf("pre-crash state lost: warm-data0=%q", v)
	}
}

// TestRestartHealsPrunedPayloads: a durable partition-hosting node —
// colocated with its receiver or not — crashes with releases parked at
// its applier whose payloads never arrived and now exist only at the
// origin. The recovered applier must pull them (PayloadPullMsg →
// re-ship) and skip the version the origin has since overwritten
// (PayloadSupersededMsg).
func TestRestartHealsPrunedPayloads(t *testing.T) {
	for _, d := range deployments {
		t.Run(d.name, func(t *testing.T) {
			s := newDC(t, nil, d.colocated, NodeConfig{Config: zeroDelayConfig(), DataDir: t.TempDir()})

			// Healthy traffic first, then outlive the applier's
			// crash-suspect gate: releases parked on live replication
			// lag are never pulled.
			writePairs(t, s, "warm-", 1)()
			time.Sleep(1100 * time.Millisecond)
			parkLostPayloads(t, s)

			// Kill the node and restart it from its data dir, the payload
			// link healthy again — but the payload copies are gone.
			s.crashParts()
			severPayloads(s, false)
			s.restartParts(t)
			waitHealed(t, s)
		})
	}
}

// TestColocatedRestartWithoutStreamStore: a colocated durable node whose
// data dir has no dc0-stream store — the layout of a node that applied
// remote updates without the release stream — recovers: the receiver
// re-releases what its persisted watermark does not cover, the fresh
// applier admits the new stream from its start, and the release path
// drains.
func TestColocatedRestartWithoutStreamStore(t *testing.T) {
	dir := t.TempDir()
	s := newDC(t, nil, true, NodeConfig{Config: zeroDelayConfig(), DataDir: dir, WALSync: wal.SyncOnFlush})
	writePairs(t, s, "warm-", 1)()
	time.Sleep(1100 * time.Millisecond)
	parkLostPayloads(t, s)

	s.crashParts()
	if err := os.RemoveAll(filepath.Join(dir, "dc0-stream")); err != nil {
		t.Fatal(err)
	}
	severPayloads(s, false)
	s.restartParts(t)
	waitHealed(t, s)
	writePairs(t, s, "post-", 3)()
	waitUntil(t, 10*time.Second, "release window to drain", func() bool {
		return s.recv.ReleaseInflight() == 0
	})
	if s.recv.ReleaseWedged() {
		t.Fatal("the release stream wedged")
	}
}
