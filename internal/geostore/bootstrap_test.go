package geostore

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"eunomia/internal/fabric"
	"eunomia/internal/faults"
	"eunomia/internal/simnet"
	"eunomia/internal/types"
)

// smallSnapChunks shrinks the chunk target so test-scale datasets ship in
// many chunks, restoring the original on cleanup.
func smallSnapChunks(t *testing.T, size int) {
	t.Helper()
	old := snapChunkSize
	snapChunkSize = size
	t.Cleanup(func() { snapChunkSize = old })
}

// newDonorNode builds one full datacenter node seeded with n local keys
// (bootkey0..n-1). With DCs > the deployed node count the payload batches
// it ships to absent siblings evaporate at unregistered addresses, which
// is exactly a joiner's view of a cluster it has not joined yet.
func newDonorNode(t *testing.T, net *simnet.Network, cfg Config, dc types.DCID, keys int) *Node {
	t.Helper()
	donor := NewNode(NodeConfig{Config: cfg, DC: dc, Roles: RoleAll, Fabric: net})
	t.Cleanup(func() { donor.CloseIngress(); donor.CloseServices() })
	w := donor.NewClient()
	for i := 0; i < keys; i++ {
		if err := w.Update(bootKey(i), []byte(fmt.Sprintf("payload%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	return donor
}

func bootKey(i int) types.Key { return types.Key(fmt.Sprintf("bootkey%d", i)) }

// checkBootKeys asserts every seeded key is readable at the node — with
// no waiting: shipped snapshots install synchronously inside OpenNode, so
// a successful open means the data is already there.
func checkBootKeys(t *testing.T, n *Node, keys int) {
	t.Helper()
	r := n.NewClient()
	for i := 0; i < keys; i++ {
		v, err := r.Read(bootKey(i))
		if err != nil || string(v) != fmt.Sprintf("payload%d", i) {
			t.Fatalf("bootstrapped node missing %s: %q, %v", bootKey(i), v, err)
		}
	}
}

// TestBootstrapSnapshotShip is the happy path end to end through
// OpenNode: a joining partition-role process pulls pinned, chunked,
// compressed snapshots from a live peer and serves the full dataset the
// moment it opens, without replaying any update history.
func TestBootstrapSnapshotShip(t *testing.T) {
	smallSnapChunks(t, 2048)
	cfg := Config{DCs: 2, Partitions: 2, Delay: func(from, to fabric.Addr) time.Duration { return 0 }}
	net := simnet.New(nil)
	t.Cleanup(net.Close)
	const keys = 300
	newDonorNode(t, net, cfg, 0, keys)

	joiner, err := OpenNode(NodeConfig{
		Config: cfg, DC: 1, Roles: RolePartitions | RoleEunomia, Fabric: net,
		BootstrapFrom: []types.DCID{0},
	})
	if err != nil {
		t.Fatalf("bootstrap open: %v", err)
	}
	t.Cleanup(func() { joiner.CloseIngress(); joiner.CloseServices() })

	checkBootKeys(t, joiner, keys)
	bytes, chunks, seconds := joiner.BootstrapStats()
	if bytes == 0 || chunks < 4 || seconds <= 0 {
		t.Fatalf("ship counters: bytes=%d chunks=%d seconds=%v (want a multi-chunk compressed transfer)", bytes, chunks, seconds)
	}
}

// interceptChunks re-registers the joiner's partition endpoint with fn in
// front of the node's chunk delivery: fn sees every SnapshotChunkMsg
// (with its donor address) and decides whether/what to deliver. It
// returns the per-chunk delivery counts for resume assertions.
func interceptChunks(joiner *Node, net *simnet.Network, pid types.PartitionID,
	fn func(from fabric.Addr, msg SnapshotChunkMsg, seen int) (SnapshotChunkMsg, bool)) func(uint32) int {
	var mu sync.Mutex
	seen := map[uint32]int{}
	net.Register(fabric.PartitionAddr(joiner.DC(), pid), func(msg fabric.Message) {
		v, ok := msg.Payload.(SnapshotChunkMsg)
		if !ok {
			return
		}
		mu.Lock()
		seen[v.Chunk]++
		k := seen[v.Chunk]
		mu.Unlock()
		if out, deliver := fn(msg.From, v, k); deliver {
			joiner.deliverBootstrapChunk(pid, out)
		}
	})
	return func(c uint32) int {
		mu.Lock()
		defer mu.Unlock()
		return seen[c]
	}
}

// TestBootstrapTornTransferResumesAtChunkGranularity loses the first copy
// of every chunk in flight and checks the transfer resumes exactly where
// it tore: each chunk crosses the wire twice — a delivered chunk is never
// refetched after a later one arrives.
func TestBootstrapTornTransferResumesAtChunkGranularity(t *testing.T) {
	smallSnapChunks(t, 1024)
	cfg := Config{DCs: 2, Partitions: 1, Delay: func(from, to fabric.Addr) time.Duration { return 0 }}
	net := simnet.New(nil)
	t.Cleanup(net.Close)
	const keys = 200
	donor := newDonorNode(t, net, cfg, 0, keys)

	joiner, err := OpenNode(NodeConfig{Config: cfg, DC: 1, Roles: RolePartitions | RoleEunomia, Fabric: net})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { joiner.CloseIngress(); joiner.CloseServices() })
	interceptChunks(joiner, net, 0, func(from fabric.Addr, msg SnapshotChunkMsg, seen int) (SnapshotChunkMsg, bool) {
		return msg, seen > 1 // the first copy of every chunk is torn away
	})

	if err := joiner.pullSnapshot(0, 0, NodeConfig{
		BootstrapChunkTimeout:  30 * time.Millisecond,
		BootstrapChunkAttempts: 20,
	}); err != nil {
		t.Fatalf("pull with torn transfers: %v", err)
	}
	checkBootKeys(t, joiner, keys)

	// The donor's pin records how often each chunk was served: exactly
	// twice (the torn copy and its retry) proves chunk-granular resume —
	// a transfer restarting from zero would serve early chunks more.
	donor.boot.mu.Lock()
	pin := donor.boot.pins[snapPinKey{from: 1, pid: 0}]
	donor.boot.mu.Unlock()
	if pin == nil || len(pin.served) < 4 {
		t.Fatalf("want a multi-chunk pin on the donor, got %+v", pin)
	}
	for c, n := range pin.served {
		if n != 2 {
			t.Fatalf("chunk %d served %d times, want exactly 2 (torn copy + resume)", c, n)
		}
	}
}

// TestBootstrapChecksumMismatchRejected corrupts one chunk in flight: the
// joiner must reject it loudly (never installing its records) and re-pull
// until a clean copy arrives.
func TestBootstrapChecksumMismatchRejected(t *testing.T) {
	smallSnapChunks(t, 1024)
	cfg := Config{DCs: 2, Partitions: 1, Delay: func(from, to fabric.Addr) time.Duration { return 0 }}
	net := simnet.New(nil)
	t.Cleanup(net.Close)
	const keys = 200
	newDonorNode(t, net, cfg, 0, keys)

	joiner, err := OpenNode(NodeConfig{Config: cfg, DC: 1, Roles: RolePartitions | RoleEunomia, Fabric: net})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { joiner.CloseIngress(); joiner.CloseServices() })
	seen := interceptChunks(joiner, net, 0, func(from fabric.Addr, msg SnapshotChunkMsg, k int) (SnapshotChunkMsg, bool) {
		if msg.Chunk == 1 && k == 1 {
			// Bit rot in flight: data no longer matches the checksum.
			msg.Data = append([]byte(nil), msg.Data...)
			msg.Data[len(msg.Data)/2] ^= 0x40
		}
		return msg, true
	})

	if err := joiner.pullSnapshot(0, 0, NodeConfig{
		BootstrapChunkTimeout:  30 * time.Millisecond,
		BootstrapChunkAttempts: 20,
	}); err != nil {
		t.Fatalf("pull with a corrupt chunk: %v", err)
	}
	if n := seen(1); n < 2 {
		t.Fatalf("corrupt chunk delivered %d times, want a rejection and a re-pull", n)
	}
	checkBootKeys(t, joiner, keys)
}

// TestBootstrapPersistentlyCorruptDonorFails pins the corrupt-retry
// bound: a donor whose chunks never verify is abandoned with an error
// instead of being re-pulled forever.
func TestBootstrapPersistentlyCorruptDonorFails(t *testing.T) {
	smallSnapChunks(t, 1024)
	cfg := Config{DCs: 2, Partitions: 1, Delay: func(from, to fabric.Addr) time.Duration { return 0 }}
	net := simnet.New(nil)
	t.Cleanup(net.Close)
	newDonorNode(t, net, cfg, 0, 50)

	joiner, err := OpenNode(NodeConfig{Config: cfg, DC: 1, Roles: RolePartitions | RoleEunomia, Fabric: net})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { joiner.CloseIngress(); joiner.CloseServices() })
	interceptChunks(joiner, net, 0, func(from fabric.Addr, msg SnapshotChunkMsg, k int) (SnapshotChunkMsg, bool) {
		msg.CRC ^= 0xdeadbeef // every copy of every chunk fails verification
		return msg, true
	})

	err = joiner.pullSnapshot(0, 0, NodeConfig{
		BootstrapChunkTimeout:  30 * time.Millisecond,
		BootstrapChunkAttempts: 20,
	})
	if err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("want a corrupt-donor failure, got %v", err)
	}
}

// TestBootstrapDonorCrashFailsOverToNextPeer kills the preferred donor
// mid-ship (after one chunk) and checks the joiner exhausts its retries,
// moves to the next configured donor, and re-pins there from chunk 0.
func TestBootstrapDonorCrashFailsOverToNextPeer(t *testing.T) {
	smallSnapChunks(t, 1024)
	cfg := Config{DCs: 3, Partitions: 1, Delay: func(from, to fabric.Addr) time.Duration { return 0 }}
	net := simnet.New(nil)
	t.Cleanup(net.Close)
	const keys = 200
	// Two donors with identical data: dc0 seeds, dc1 receives the
	// replicated copy over the normal release path. dc1 joins the fabric
	// first: a shipment to an endpoint not yet registered is dropped, and
	// dc1 would then hold only the keys shipped after it came up.
	donor1 := NewNode(NodeConfig{Config: cfg, DC: 1, Roles: RoleAll, Fabric: net})
	t.Cleanup(func() { donor1.CloseIngress(); donor1.CloseServices() })
	newDonorNode(t, net, cfg, 0, keys)
	r1 := donor1.NewClient()
	waitUntil(t, 20*time.Second, "replication to the second donor", func() bool {
		v, _ := r1.Read(bootKey(keys - 1))
		return string(v) == fmt.Sprintf("payload%d", keys-1)
	})

	joiner, err := OpenNode(NodeConfig{Config: cfg, DC: 2, Roles: RolePartitions | RoleEunomia, Fabric: net})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { joiner.CloseIngress(); joiner.CloseServices() })
	var crashOnce sync.Once
	interceptChunks(joiner, net, 0, func(from fabric.Addr, msg SnapshotChunkMsg, k int) (SnapshotChunkMsg, bool) {
		if from.DC == 1 {
			if msg.Chunk == 0 {
				return msg, true // the crash lands one chunk into the ship
			}
			// The donor process dies: its pins are gone and its endpoint
			// goes silent, so later requests time out at the joiner.
			crashOnce.Do(func() {
				donor1.CloseIngress()
				donor1.CloseServices()
				net.Unregister(fabric.PartitionAddr(1, 0))
			})
			return msg, false
		}
		return msg, true
	})

	nc := NodeConfig{
		Config:                 cfg,
		BootstrapFrom:          []types.DCID{1, 0}, // prefer the donor that will crash
		BootstrapChunkTimeout:  30 * time.Millisecond,
		BootstrapChunkAttempts: 3,
	}
	if err := joiner.bootstrapPartition(0, nc); err != nil {
		t.Fatalf("bootstrap with a crashing donor: %v", err)
	}
	checkBootKeys(t, joiner, keys)
}

// TestBootstrapConcurrentChunk0RequestsShareOneCapture hammers a donor
// with concurrent chunk-0 requests carrying one pull ID — the retransmit
// storm a slow capture draws — and checks they all resolve to the same
// pin: one capture, not one per retransmit, so the joiner can never
// splice chunks from two different consistent captures under one ID.
func TestBootstrapConcurrentChunk0RequestsShareOneCapture(t *testing.T) {
	cfg := Config{DCs: 2, Partitions: 1, Delay: func(from, to fabric.Addr) time.Duration { return 0 }}
	net := simnet.New(nil)
	t.Cleanup(net.Close)
	donor := newDonorNode(t, net, cfg, 0, 100)

	req := SnapshotRequestMsg{From: 1, Partition: 0, ID: 42, Chunk: 0}
	const racers = 8
	pins := make([]*snapPin, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pin, err := donor.snapshotPin(donor.parts[0], req)
			if err != nil {
				t.Errorf("racer %d: %v", i, err)
				return
			}
			pins[i] = pin
		}(i)
	}
	wg.Wait()
	if pins[0] == nil {
		t.Fatal("no pin captured")
	}
	for i := 1; i < racers; i++ {
		if pins[i] != pins[0] {
			t.Fatalf("racer %d pinned a second capture for the same pull ID", i)
		}
	}
}

// TestBootstrapReleaseFreesDonorPin checks the joiner's post-pull release
// reaches the donor and frees the pin's chunk memory — a donor must not
// hold a compressed copy of the partition for every bootstrap it ever
// served.
func TestBootstrapReleaseFreesDonorPin(t *testing.T) {
	smallSnapChunks(t, 2048)
	cfg := Config{DCs: 2, Partitions: 1, Delay: func(from, to fabric.Addr) time.Duration { return 0 }}
	net := simnet.New(nil)
	t.Cleanup(net.Close)
	const keys = 300
	donor := newDonorNode(t, net, cfg, 0, keys)

	joiner, err := OpenNode(NodeConfig{
		Config: cfg, DC: 1, Roles: RolePartitions | RoleEunomia, Fabric: net,
		BootstrapFrom: []types.DCID{0},
	})
	if err != nil {
		t.Fatalf("bootstrap open: %v", err)
	}
	t.Cleanup(func() { joiner.CloseIngress(); joiner.CloseServices() })
	checkBootKeys(t, joiner, keys)

	// The release travels after the pull completes; the pin entry (serve
	// counters) survives, but its chunk memory must go.
	waitUntil(t, 5*time.Second, "donor pin release", func() bool {
		donor.boot.mu.Lock()
		defer donor.boot.mu.Unlock()
		pin := donor.boot.pins[snapPinKey{from: 1, pid: 0}]
		return pin != nil && pin.released && pin.chunks == nil
	})
}

// TestBootstrapIdlePinSwept covers the release-less path: a joiner that
// pins a capture and dies never sends a release, so the next snapshot
// request past the idle TTL sweeps the abandoned pin's memory.
func TestBootstrapIdlePinSwept(t *testing.T) {
	old := snapPinIdleTTL
	snapPinIdleTTL = 10 * time.Millisecond
	t.Cleanup(func() { snapPinIdleTTL = old })
	cfg := Config{DCs: 4, Partitions: 1, Delay: func(from, to fabric.Addr) time.Duration { return 0 }}
	net := simnet.New(nil)
	t.Cleanup(net.Close)
	donor := newDonorNode(t, net, cfg, 0, 50)

	if _, err := donor.snapshotPin(donor.parts[0], SnapshotRequestMsg{From: 1, Partition: 0, ID: 7, Chunk: 0}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * snapPinIdleTTL) // the joiner goes silent
	if _, err := donor.snapshotPin(donor.parts[0], SnapshotRequestMsg{From: 2, Partition: 0, ID: 8, Chunk: 0}); err != nil {
		t.Fatal(err)
	}
	donor.boot.mu.Lock()
	_, stale := donor.boot.pins[snapPinKey{from: 1, pid: 0}]
	_, fresh := donor.boot.pins[snapPinKey{from: 2, pid: 0}]
	donor.boot.mu.Unlock()
	if stale {
		t.Fatal("abandoned pin survived the idle TTL sweep")
	}
	if !fresh {
		t.Fatal("the sweeping request's own pin is missing")
	}
}

// TestBootstrapStaleErrorReplyIgnored poisons the joiner's reply stream
// with donor errors carrying a stale pull ID — what a restarted donor
// answering an abandoned pull's retransmit sends — before every real
// chunk. Errors from a pull this one never made must not fail the
// current donor.
func TestBootstrapStaleErrorReplyIgnored(t *testing.T) {
	smallSnapChunks(t, 1024)
	cfg := Config{DCs: 2, Partitions: 1, Delay: func(from, to fabric.Addr) time.Duration { return 0 }}
	net := simnet.New(nil)
	t.Cleanup(net.Close)
	const keys = 200
	newDonorNode(t, net, cfg, 0, keys)

	joiner, err := OpenNode(NodeConfig{Config: cfg, DC: 1, Roles: RolePartitions | RoleEunomia, Fabric: net})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { joiner.CloseIngress(); joiner.CloseServices() })
	interceptChunks(joiner, net, 0, func(from fabric.Addr, msg SnapshotChunkMsg, k int) (SnapshotChunkMsg, bool) {
		joiner.deliverBootstrapChunk(0, SnapshotChunkMsg{
			Partition: 0, ID: msg.ID ^ 0xdeadbeef,
			Err: "unknown snapshot pin 12345 for partition 0",
		})
		return msg, true
	})

	if err := joiner.pullSnapshot(0, 0, NodeConfig{
		BootstrapChunkTimeout:  30 * time.Millisecond,
		BootstrapChunkAttempts: 20,
	}); err != nil {
		t.Fatalf("pull with stale error replies interleaved: %v", err)
	}
	checkBootKeys(t, joiner, keys)
}

// TestBootstrapSurvivesChaosLinkCut drives the bootstrap through an
// internal/faults schedule that partitions the joiner from its donor
// mid-transfer and heals later: the chunk retry loop must ride out the
// outage and complete the install once the link returns.
func TestBootstrapSurvivesChaosLinkCut(t *testing.T) {
	smallSnapChunks(t, 1024)
	cfg := Config{DCs: 2, Partitions: 2, Delay: func(from, to fabric.Addr) time.Duration { return 0 }}
	net := simnet.New(nil)
	t.Cleanup(net.Close)
	const keys = 300
	newDonorNode(t, net, cfg, 0, keys)

	sched, err := faults.ParseSchedule("t=5ms:partition dc1<-dc0", "t=250ms:heal")
	if err != nil {
		t.Fatal(err)
	}
	// Actuate the schedule on the snapshot-ship edges: dc1<-dc0 silences
	// the donors' replies into the joiner's partition endpoints.
	var wg sync.WaitGroup
	start := time.Now()
	for _, e := range sched.Events {
		e := e
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Until(start.Add(e.At)))
			for p := 0; p < cfg.Partitions; p++ {
				from := fabric.PartitionAddr(0, types.PartitionID(p))
				to := fabric.PartitionAddr(1, types.PartitionID(p))
				net.SetDrop(from, to, e.Kind == faults.KindPartition)
			}
		}()
	}

	joiner, err := OpenNode(NodeConfig{
		Config: cfg, DC: 1, Roles: RolePartitions | RoleEunomia, Fabric: net,
		BootstrapFrom:          []types.DCID{0},
		BootstrapChunkTimeout:  30 * time.Millisecond,
		BootstrapChunkAttempts: 40,
	})
	if err != nil {
		t.Fatalf("bootstrap through the link cut: %v", err)
	}
	t.Cleanup(func() { joiner.CloseIngress(); joiner.CloseServices() })
	wg.Wait()
	checkBootKeys(t, joiner, keys)
}
