package geostore

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"eunomia/internal/fabric"
	"eunomia/internal/faults"
	"eunomia/internal/simnet"
	"eunomia/internal/types"
	"eunomia/internal/wal"
)

// newDurableSplitDC is newSplitDC with a data dir under every dc0 node, so
// the partition group can be "killed" (closed without draining) and
// rejoin.
func newDurableSplitDC(t *testing.T, dir string) *splitDC {
	t.Helper()
	return newDurableSplitDCPolicy(t, dir, wal.SyncGroupCommit)
}

// newDurableSplitDCPolicy pins the WAL sync policy on every durable dc0
// node, so the restart matrix covers group commit alongside the default.
func newDurableSplitDCPolicy(t *testing.T, dir string, policy wal.SyncPolicy) *splitDC {
	t.Helper()
	return newDC(t, nil, false, NodeConfig{Config: zeroDelayConfig(), DataDir: dir, WALSync: policy})
}

// TestPartitionRestartRejoinsFromDurableWatermark is the in-process
// rejoin check under wal.SyncOnFlush, the server's default: the
// partition-group process dies mid-stream (durably applied prefix,
// un-durable suffix still windowed), a successor recovers from the same
// data dir, and the release stream resumes from the durable watermark —
// every update becomes visible exactly once, in causal order, with no
// wedge.
func TestPartitionRestartRejoinsFromDurableWatermark(t *testing.T) {
	runPartitionRestartRejoin(t, wal.SyncOnFlush)
}

// TestPartitionRestartRejoinsGroupCommitDurable runs the same crash
// under wal.SyncGroupCommit: durable acks are retired asynchronously by
// the group committer, so the kill lands with Durable trailing Cum — the
// rejoin must still resume at the (possibly older) durable watermark
// with exactly-once visibility.
func TestPartitionRestartRejoinsGroupCommitDurable(t *testing.T) {
	runPartitionRestartRejoin(t, wal.SyncGroupCommit)
}

func runPartitionRestartRejoin(t *testing.T, policy wal.SyncPolicy) {
	dir := t.TempDir()
	s := newDurableSplitDCPolicy(t, dir, policy)

	const pre = 20
	check := writePairs(t, s, "pre-", pre)
	check()
	waitUntil(t, 10*time.Second, "durable watermark to advance", func() bool {
		return s.parts.ApplierDurable() > 0
	})

	// Kill the partition group: close without touching the receiver. The
	// receiver's window keeps the un-durable suffix and the new traffic.
	s.parts.CloseIngress()
	s.parts.CloseServices()

	const during = 10
	writePairs(t, s, "during-", during) // released into a dead stream

	// Restart from the same data dir on the same fabric addresses.
	cfg := Config{DCs: 2, Partitions: 2, Delay: func(from, to fabric.Addr) time.Duration { return 0 }}
	restarted, err := OpenNode(NodeConfig{Config: cfg, DC: 0, Roles: RolePartitions | RoleEunomia, Fabric: s.net, DataDir: dir, WALSync: policy})
	if err != nil {
		t.Fatalf("rejoin from %s: %v", dir, err)
	}
	s.parts = restarted

	// The pre-crash state recovered from the WAL...
	r := s.parts.NewClient()
	for i := 0; i < pre; i++ {
		key := types.Key(fmt.Sprintf("pre-data%d", i))
		if v, _ := r.Read(key); string(v) != fmt.Sprintf("payload%d", i) {
			t.Fatalf("pre-crash %s lost in recovery: %q", key, v)
		}
	}
	// ...and the stream resumes: the mid-outage traffic arrives in causal
	// order, with no wedge.
	for i := 0; i < during; i++ {
		flag := types.Key(fmt.Sprintf("during-flag%d", i))
		data := types.Key(fmt.Sprintf("during-data%d", i))
		waitUntil(t, 20*time.Second, string(flag), func() bool {
			v, _ := r.Read(flag)
			if string(v) != "set" {
				return false
			}
			d, _ := r.Read(data)
			if string(d) != fmt.Sprintf("payload%d", i) {
				t.Fatalf("pair %d: flag visible without data after rejoin", i)
			}
			return true
		})
	}
	if s.recv.ReleaseWedged() {
		t.Fatal("stream wedged despite durable state")
	}

	// Exactly once: every re-released duplicate must have been absorbed
	// by the recovered applied watermarks. The restarted node applied at
	// most the un-durable suffix plus the mid-outage traffic.
	post := writePairs(t, s, "post-", 5)
	post()
	if got := s.parts.TotalRemoteApplied(); got > 2*(pre+during+5) {
		t.Fatalf("restarted node applied %d remote updates, want <= %d (duplicates leaked)", got, 2*(pre+during+5))
	}
	waitUntil(t, 10*time.Second, "window to drain", func() bool {
		return s.recv.ReleaseInflight() == 0
	})
}

// TestReceiverRestartRecoversDurableState restarts the receiver process
// from its data dir mid-stream: pending queues and SiteTime recover, the
// successor re-releases under a fresh epoch, and the partitions (same
// incarnation, intact watermarks) deduplicate — no update lost, none
// double-applied.
func TestReceiverRestartRecoversDurableState(t *testing.T) {
	dir := t.TempDir()
	s := newDurableSplitDC(t, dir)

	check := writePairs(t, s, "one-", 8)
	check()

	s.recv.CloseServices()
	cfg := Config{DCs: 2, Partitions: 2, Delay: func(from, to fabric.Addr) time.Duration { return 0 }}
	restarted, err := OpenNode(NodeConfig{Config: cfg, DC: 0, Roles: RoleReceiver, Fabric: s.net, DataDir: dir})
	if err != nil {
		t.Fatalf("receiver rejoin: %v", err)
	}
	s.recv = restarted

	check2 := writePairs(t, s, "two-", 8)
	check2()
	waitUntil(t, 10*time.Second, "new window to drain", func() bool {
		return s.recv.ReleaseInflight() == 0
	})
	if got := s.parts.TotalRemoteApplied(); got > 2*16+16 {
		t.Fatalf("partitions applied %d remote updates across receiver restart, want <= %d", got, 2*16+16)
	}
}

// TestApplierDurableNeverExceedsTornWALReplay pins the contract behind
// the asynchronous group-commit ack path: every release-stream sequence
// the applier advertises as Durable is backed by stream-position records
// already on disk. It repeatedly samples ApplierDurable mid-stream, then
// replays the live stream store's files read-only — exactly what a crash
// at that instant would recover, since wal.Replay stops at the first
// torn record — and asserts the recovered watermark covers the sample.
// If the durability barrier ever acked ahead of the fsync, a crash in
// that window would rewind past a sequence the receiver already pruned.
func TestApplierDurableNeverExceedsTornWALReplay(t *testing.T) {
	dir := t.TempDir()
	s := newDurableSplitDCPolicy(t, dir, wal.SyncGroupCommit)

	writePairs(t, s, "seed-", 20)()
	waitUntil(t, 10*time.Second, "durable watermark to advance", func() bool {
		return s.parts.ApplierDurable() > 0
	})

	streamDir := filepath.Join(dir, "dc0-stream")
	for round := 0; round < 5; round++ {
		claimed := s.parts.ApplierDurable()
		var epoch, recovered uint64
		replay := func(rec []byte) error {
			if len(rec) == 0 || rec[0] != wal.KindStream {
				return nil
			}
			ep, seq, err := wal.DecodeStream(rec)
			if err != nil {
				return err
			}
			if ep > epoch || (ep == epoch && seq > recovered) {
				epoch, recovered = ep, seq
			}
			return nil
		}
		if err := wal.Replay(filepath.Join(streamDir, "snapshot"), replay); err != nil {
			t.Fatal(err)
		}
		if err := wal.Replay(filepath.Join(streamDir, "log"), replay); err != nil {
			t.Fatal(err)
		}
		if recovered < claimed {
			t.Fatalf("round %d: applier advertises Durable=%d but a crash now would replay only seq %d",
				round, claimed, recovered)
		}
		writePairs(t, s, fmt.Sprintf("r%d-", round), 10)()
	}
}

// TestPartitionRestartWithoutDataDirStillWedges pins the PR 2 behavior
// the ISSUE requires to survive: no data dir, no rejoin — the stream must
// wedge loudly. (release_test.go covers this too; this variant keeps the
// receiver durable so only the partition side is volatile.)
func TestPartitionRestartWithoutDataDirStillWedges(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DCs: 2, Partitions: 2, Delay: func(from, to fabric.Addr) time.Duration { return 0 }}
	net := simnet.New(nil)
	s := &splitDC{
		net:    net,
		parts:  NewNode(NodeConfig{Config: cfg, DC: 0, Roles: RolePartitions | RoleEunomia, Fabric: net}),
		recv:   NewNode(NodeConfig{Config: cfg, DC: 0, Roles: RoleReceiver, Fabric: net, DataDir: dir}),
		origin: NewNode(NodeConfig{Config: cfg, DC: 1, Roles: RoleAll, Fabric: net}),
	}
	t.Cleanup(s.close)

	check := writePairs(t, s, "pre-", 5)
	check()

	s.parts.CloseIngress()
	s.parts.CloseServices()
	s.parts = NewNode(NodeConfig{Config: cfg, DC: 0, Roles: RolePartitions | RoleEunomia, Fabric: net})

	writePairs(t, s, "post-", 5)
	waitUntil(t, 10*time.Second, "stream to be declared unrecoverable", func() bool {
		return s.recv.ReleaseWedged()
	})
}

// TestClosedDurableNodeDropsPayload pins the shutdown order: once a
// durable node has closed, a payload for one of its partitions is
// dropped rather than appended to a closed WAL — both one arriving over
// the fabric (the endpoint is unregistered before the stores close) and
// one whose delivery was already dispatched when the stores closed.
func TestClosedDurableNodeDropsPayload(t *testing.T) {
	cfg := Config{DCs: 2, Partitions: 2}
	net := simnet.New(nil)
	defer net.Close()
	n, err := OpenNode(NodeConfig{Config: cfg, DC: 0, Roles: RoleAll, Fabric: net, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	n.Close()

	u := &types.Update{Key: "k", Value: []byte("v"), Origin: 1, Partition: 0, TS: 1 << 16}
	dropped := net.Dropped.Load()
	net.Send(fabric.PartitionAddr(1, 0), fabric.PartitionAddr(0, 0), []*types.Update{u})
	waitUntil(t, 5*time.Second, "the delivery to the closed partition to drop", func() bool {
		return net.Dropped.Load() > dropped
	})
	n.Partition(0).ReceivePayload(u) // a delivery that raced the close
}

// TestDurableApplierSyncsPerTickNotPerAck: under wal.SyncOnFlush a durable
// applier's acknowledgements wait for the flush loop to make the partition
// WALs durable instead of flushing them at every ack point, so while
// remote updates stream in, partition WAL fsyncs stay at or below one per
// partition per flush-loop tick.
func TestDurableApplierSyncsPerTickNotPerAck(t *testing.T) {
	for _, d := range deployments {
		t.Run(d.name, func(t *testing.T) {
			const interval = 10 * time.Millisecond
			cfg := zeroDelayConfig()
			cfg.Partitions = 4
			cfg.BatchInterval = interval
			s := newDC(t, nil, d.colocated, NodeConfig{Config: cfg, DataDir: t.TempDir(), WALSync: wal.SyncOnFlush})
			var fsyncs *wal.SyncMetrics
			for _, c := range s.parts.WALMetrics() {
				if c.Component == "partition" {
					fsyncs = c.M
				}
			}

			start := time.Now()
			before := fsyncs.Fsync.Count()
			writePairs(t, s, "", 150)()
			waitUntil(t, 10*time.Second, "durable acks to drain the window", func() bool {
				return s.recv.ReleaseInflight() == 0
			})
			got := fsyncs.Fsync.Count() - before
			ticks := int64(time.Since(start)/interval) + 2
			if limit := int64(cfg.Partitions) * ticks; got > limit {
				t.Fatalf("%d partition WAL fsyncs over %d flush-loop ticks, want at most %d: the applier syncs per ack point", got, ticks, limit)
			}
			t.Logf("%d partition WAL fsyncs over %d flush-loop ticks", got, ticks)
		})
	}
}

// TestApplierStreamSyncErrorIsSticky: an fsync error on a colocated
// node's release stream store stops its durable acknowledgements and
// surfaces through SyncErr, without stopping the node: it keeps applying
// what its release window admits.
func TestApplierStreamSyncErrorIsSticky(t *testing.T) {
	inj := faults.NewInjector(1)
	inj.ArmFsync("applier", nil)
	s := newDC(t, nil, true, NodeConfig{Config: zeroDelayConfig(), DataDir: t.TempDir(), WALSync: wal.SyncOnFlush, Faults: inj})
	writePairs(t, s, "", 5)()
	waitUntil(t, 10*time.Second, "the stream sync error to surface", func() bool {
		return s.parts.SyncErr() != nil
	})
	if got := s.parts.ApplierDurable(); got != 0 {
		t.Fatalf("ApplierDurable = %d past a failed stream fsync, want 0", got)
	}
	writePairs(t, s, "after-", 2)()
}
