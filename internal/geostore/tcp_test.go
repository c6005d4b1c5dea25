package geostore

import (
	"fmt"
	"testing"
	"time"

	"eunomia/internal/fabric"
	"eunomia/internal/transport"
	"eunomia/internal/types"
)

// listenTCP brings up one TCP fabric endpoint on loopback.
func listenTCP(t *testing.T) *transport.TCP {
	t.Helper()
	f, err := transport.Listen(transport.Config{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestDatacenterOverTCPFabrics runs the same deployment code the simnet
// tests run, over real sockets: datacenter 0 is split across two fabric
// endpoints (partitions+Eunomia in one, the receiver in another, so even
// the receiver→partition release crosses TCP), datacenter 1 is a full
// node on a third. Causal order must hold end to end in both directions.
func TestDatacenterOverTCPFabrics(t *testing.T) {
	cfg := Config{DCs: 2, Partitions: 2}

	fabA := listenTCP(t) // dc0 partitions + Eunomia
	fabB := listenTCP(t) // dc0 receiver
	fabC := listenTCP(t) // dc1, all roles
	defer fabA.Close()
	defer fabB.Close()
	defer fabC.Close()
	a, b, c := fabA.Addr().String(), fabB.Addr().String(), fabC.Addr().String()

	// Static routing; exact endpoint routes beat datacenter wildcards.
	fabA.AddRoute(fabric.ReceiverAddr(0), b)
	fabA.AddDCRoute(1, c)
	for p := types.PartitionID(0); p < 2; p++ {
		fabB.AddRoute(fabric.PartitionAddr(0, p), a)
	}
	fabB.AddRoute(fabric.ApplierAddr(0), a)
	fabB.AddDCRoute(1, c)
	fabC.AddRoute(fabric.ReceiverAddr(0), b)
	fabC.AddDCRoute(0, a)

	nodeA := NewNode(NodeConfig{Config: cfg, DC: 0, Roles: RolePartitions | RoleEunomia, Fabric: fabA})
	nodeB := NewNode(NodeConfig{Config: cfg, DC: 0, Roles: RoleReceiver, Fabric: fabB})
	nodeC := NewNode(NodeConfig{Config: cfg, DC: 1, Roles: RoleAll, Fabric: fabC})
	nodes := []*Node{nodeA, nodeB, nodeC}
	defer func() {
		for _, n := range nodes {
			n.CloseIngress()
		}
		for _, n := range nodes {
			n.CloseServices()
		}
	}()

	waitTCP := func(cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("condition not reached within 20s")
	}

	// dc0 → dc1: a causal chain of data/flag pairs. Seeing a flag at dc1
	// without its data would violate causality.
	writer := nodeA.NewClient()
	reader := nodeC.NewClient()
	const rounds = 10
	for i := 0; i < rounds; i++ {
		data := types.Key(fmt.Sprintf("data%d", i))
		flag := types.Key(fmt.Sprintf("flag%d", i))
		if err := writer.Update(data, []byte(fmt.Sprintf("payload%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := writer.Update(flag, []byte("set")); err != nil {
			t.Fatal(err)
		}
		waitTCP(func() bool {
			f, _ := reader.Read(flag)
			if string(f) != "set" {
				return false
			}
			d, _ := reader.Read(data)
			if string(d) != fmt.Sprintf("payload%d", i) {
				t.Fatalf("round %d: flag visible at dc1 without data (causality violated over TCP)", i)
			}
			return true
		})
	}

	// dc1 → dc0: exercises the split datacenter — dc1's Eunomia ships to
	// the receiver process (fabB), which releases each update to the
	// partition process (fabA) through fabric apply calls.
	back := nodeC.NewClient()
	if err := back.Update("echo", []byte("from-dc1")); err != nil {
		t.Fatal(err)
	}
	probe := nodeA.NewClient()
	waitTCP(func() bool {
		v, _ := probe.Read("echo")
		return string(v) == "from-dc1"
	})

	// The receiver process really did the releasing.
	if nodeB.Receiver() == nil {
		t.Fatal("dc0's receiver node hosts no receiver")
	}
	waitTCP(func() bool { return nodeB.Receiver().Applied.Load() > 0 })
	if nodeA.TotalUpdates() != 2*rounds {
		t.Fatalf("dc0 accepted %d updates, want %d", nodeA.TotalUpdates(), 2*rounds)
	}
}

// TestBootstrapOverTCPWithHeldDelivery pins the readiness hand-off that
// only exists on the real transport: cmd/eunomia-server opens its fabric
// with HoldDelivery and calls Ready only after OpenNode returns, but a
// bootstrapping open blocks inside OpenNode waiting for chunk replies
// that arrive on connections the donor dials back — held connections.
// bootstrapPartitions must release delivery itself or the pull deadlocks
// and every donor is declared unreachable. The simnet suite cannot catch
// this (simnet has no readiness gate), so this runs the pull end to end
// over sockets with the gate armed.
func TestBootstrapOverTCPWithHeldDelivery(t *testing.T) {
	cfg := Config{DCs: 2, Partitions: 2}

	fabDonor, err := transport.Listen(transport.Config{Listen: "127.0.0.1:0", HoldDelivery: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fabDonor.Close()
	fabJoiner, err := transport.Listen(transport.Config{Listen: "127.0.0.1:0", HoldDelivery: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fabJoiner.Close()
	fabDonor.AddDCRoute(1, fabJoiner.Addr().String())
	fabJoiner.AddDCRoute(0, fabDonor.Addr().String())

	donor := NewNode(NodeConfig{Config: cfg, DC: 0, Roles: RoleAll, Fabric: fabDonor})
	defer func() { donor.CloseIngress(); donor.CloseServices() }()
	fabDonor.Ready()
	const keys = 50
	w := donor.NewClient()
	for i := 0; i < keys; i++ {
		if err := w.Update(bootKey(i), []byte(fmt.Sprintf("payload%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	// Deliberately no fabJoiner.Ready() here: the server calls it after
	// OpenNode, so the open itself must get the replies through. Short
	// chunk retries make a regression fail in ~1s instead of the 20s
	// donor-death default.
	joiner, err := OpenNode(NodeConfig{
		Config: cfg, DC: 1, Roles: RolePartitions | RoleEunomia, Fabric: fabJoiner,
		BootstrapFrom:          []types.DCID{0},
		BootstrapChunkTimeout:  200 * time.Millisecond,
		BootstrapChunkAttempts: 5,
	})
	if err != nil {
		t.Fatalf("bootstrap over held TCP: %v", err)
	}
	defer func() { joiner.CloseIngress(); joiner.CloseServices() }()
	fabJoiner.Ready()

	checkBootKeys(t, joiner, keys)
	bytes, chunks, _ := joiner.BootstrapStats()
	if bytes == 0 || chunks == 0 {
		t.Fatalf("ship counters: bytes=%d chunks=%d (want a real transfer)", bytes, chunks)
	}
}
