package geostore

import (
	"testing"
	"time"

	"eunomia/internal/fabric"
	"eunomia/internal/simnet"
	"eunomia/internal/types"
	"eunomia/internal/wal"
)

// TestColocatedRestartHealsPrunedPayloads reproduces the loss window the
// colocated pull satellite closes: a colocated durable node crashes with
// metadata durably enqueued whose payloads were never persisted — the
// origin's shipper pruned its copy on transport acknowledgement, so after
// the restart the payload exists nowhere and the release pass would park
// forever. The recovered node must pull the payload from the origin
// (PayloadPullMsg → re-ship) and skip versions the origin has since
// overwritten (PayloadSupersededMsg), exactly like the split-role applier.
func TestColocatedRestartHealsPrunedPayloads(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DCs: 2, Partitions: 2, Delay: func(from, to fabric.Addr) time.Duration { return 0 }}
	net := simnet.New(nil)
	defer net.Close()

	dc0 := NewNode(NodeConfig{Config: cfg, DC: 0, Roles: RoleAll, Fabric: net, DataDir: dir})
	origin := NewNode(NodeConfig{Config: cfg, DC: 1, Roles: RoleAll, Fabric: net})
	defer origin.Close()

	// Healthy traffic proves the pipeline, and outlives the crash-suspect
	// gate: only updates released before a durable incarnation recovered
	// may be pulled, so wait out dc0's initial gate before creating the
	// gap (updates parked on live replication lag must never be pulled).
	c := origin.NewClient()
	if err := c.Update("warm", []byte("w")); err != nil {
		t.Fatal(err)
	}
	r := dc0.NewClient()
	waitUntil(t, 10*time.Second, "warm traffic to replicate", func() bool {
		v, _ := r.Read("warm")
		return string(v) == "w"
	})
	time.Sleep(1100 * time.Millisecond) // dc0's pullBefore gate expires

	// Sever payload replication dc1→dc0 (metadata keeps flowing): the
	// fire-and-forget payload batches vanish, the way a real crash loses
	// payloads the origin already pruned on transport acknowledgement.
	for p := 0; p < cfg.Partitions; p++ {
		net.SetDrop(fabric.PartitionAddr(1, types.PartitionID(p)), fabric.PartitionAddr(0, types.PartitionID(p)), true)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(c.Update("lost-a", []byte("v1"))) // will be superseded below
	must(c.Update("lost-a", []byte("v2")))
	must(c.Update("lost-b", []byte("payload-b")))

	// The metadata must be durably enqueued at dc0 before the "crash";
	// the payloads must not have arrived.
	waitUntil(t, 10*time.Second, "metadata to enqueue at dc0", func() bool {
		return dc0.Receiver().QueueLen(1) >= 3
	})
	if v, _ := r.Read("lost-b"); v != nil {
		t.Fatalf("payload leaked through the drop: %q", v)
	}

	// Kill and restart from the data dir, transport healthy again — but
	// the payload copies are gone for good.
	dc0.CloseIngress()
	dc0.CloseServices()
	for p := 0; p < cfg.Partitions; p++ {
		net.SetDrop(fabric.PartitionAddr(1, types.PartitionID(p)), fabric.PartitionAddr(0, types.PartitionID(p)), false)
	}
	restarted, err := OpenNode(NodeConfig{Config: cfg, DC: 0, Roles: RoleAll, Fabric: net, DataDir: dir})
	if err != nil {
		t.Fatalf("colocated rejoin from %s: %v", dir, err)
	}
	defer restarted.Close()

	// The healer pulls lost-b's exact version and lost-a's v2 from the
	// origin, and skips lost-a's v1 (superseded); everything becomes
	// visible and the receiver drains.
	r2 := restarted.NewClient()
	waitUntil(t, 20*time.Second, "pruned payloads to heal", func() bool {
		a, _ := r2.Read("lost-a")
		b, _ := r2.Read("lost-b")
		return string(a) == "v2" && string(b) == "payload-b"
	})
	waitUntil(t, 10*time.Second, "receiver queue to drain", func() bool {
		return restarted.Receiver().QueueLen(1) == 0
	})
	if v, _ := r2.Read("warm"); string(v) != "w" {
		t.Fatalf("pre-crash state lost: warm=%q", v)
	}
}

// TestSplitRestartHealsPrunedPayloads is the split-role twin of
// TestColocatedRestartHealsPrunedPayloads: the partitions process
// crashes with releases admitted at its applier whose payloads never
// arrived and now exist only at the origin. The recovered applier must
// pull them (PayloadPullMsg → re-ship) and skip the version the origin
// has since overwritten (PayloadSupersededMsg).
func TestSplitRestartHealsPrunedPayloads(t *testing.T) {
	dir := t.TempDir()
	s := newDurableSplitDC(t, dir)
	cfg := Config{DCs: 2, Partitions: 2, Delay: func(from, to fabric.Addr) time.Duration { return 0 }}

	// Healthy traffic first, then outlive the applier's crash-suspect
	// gate: releases parked on live replication lag are never pulled.
	writePairs(t, s, "warm-", 1)()
	time.Sleep(1100 * time.Millisecond)

	// Sever payload replication dc1→dc0; metadata and releases flow.
	for p := 0; p < cfg.Partitions; p++ {
		s.net.SetDrop(fabric.PartitionAddr(1, types.PartitionID(p)), fabric.PartitionAddr(0, types.PartitionID(p)), true)
	}
	c := s.origin.NewClient()
	for _, w := range []struct{ key, val string }{{"lost-a", "v1"}, {"lost-a", "v2"}, {"lost-b", "payload-b"}} {
		if err := c.Update(types.Key(w.key), []byte(w.val)); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, 10*time.Second, "releases to park at the applier", func() bool {
		return s.parts.ApplierPending() >= 3
	})

	// Kill the partitions process and restart it from its data dir, the
	// payload link healthy again — but the payload copies are gone.
	s.parts.CloseIngress()
	s.parts.CloseServices()
	for p := 0; p < cfg.Partitions; p++ {
		s.net.SetDrop(fabric.PartitionAddr(1, types.PartitionID(p)), fabric.PartitionAddr(0, types.PartitionID(p)), false)
	}
	restarted, err := OpenNode(NodeConfig{Config: cfg, DC: 0, Roles: RolePartitions | RoleEunomia, Fabric: s.net, DataDir: dir, WALSync: wal.SyncGroupCommit})
	if err != nil {
		t.Fatalf("split rejoin from %s: %v", dir, err)
	}
	s.parts = restarted

	r := restarted.NewClient()
	waitUntil(t, 20*time.Second, "pruned payloads to heal", func() bool {
		a, _ := r.Read("lost-a")
		b, _ := r.Read("lost-b")
		return string(a) == "v2" && string(b) == "payload-b"
	})
	waitUntil(t, 10*time.Second, "applier queue to drain", func() bool {
		return restarted.ApplierPending() == 0
	})
	if v, _ := r.Read("warm-data0"); string(v) != "payload0" {
		t.Fatalf("pre-crash state lost: warm-data0=%q", v)
	}
}
