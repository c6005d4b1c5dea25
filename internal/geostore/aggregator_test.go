package geostore

// Deployment-level propagation-tree tests: a datacenter whose partitions
// stream metadata through fabric aggregators (Config.Aggregators) must
// behave exactly like the flat topology — causal order, convergence,
// quiescence — and survive the crash of a single aggregator.

import (
	"fmt"
	"testing"
	"time"

	"eunomia/internal/fabric"
	"eunomia/internal/simnet"
	"eunomia/internal/types"
)

// TestAggregatorTreeCausalOrder runs the causal litmus through a
// two-aggregator tree in every datacenter: Alice posts at dc0, Bob reads
// at dc1 and replies; no datacenter may expose the reply without the
// post. Then the deployment must drain and converge.
func TestAggregatorTreeCausalOrder(t *testing.T) {
	s := NewStore(Config{DCs: 3, Partitions: 8, Aggregators: 2, Delay: fastDelay()})
	defer s.Close()

	alice := s.NewClient(0)
	if err := alice.Update("post", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	bob := s.NewClient(1)
	waitFor(t, 5*time.Second, func() bool {
		v, _ := bob.Read("post")
		return string(v) == "hello"
	})
	if err := bob.Update("reply", []byte("hi alice")); err != nil {
		t.Fatal(err)
	}
	carol := s.NewClient(2)
	waitFor(t, 5*time.Second, func() bool {
		v, _ := carol.Read("reply")
		return string(v) == "hi alice"
	})
	if v, _ := carol.Read("post"); string(v) != "hello" {
		t.Fatalf("causality violated through the tree: reply visible, post = %q", v)
	}

	// The tree must not strand anything: metadata batches drain through
	// the aggregators and every datacenter converges.
	if err := s.WaitQuiescent(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := s.Convergent(); err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 3; m++ {
		aggs := s.Node(types.DCID(m)).Aggregators()
		if len(aggs) != 2 {
			t.Fatalf("dc%d hosts %d aggregators, want 2", m, len(aggs))
		}
		var out int64
		for _, a := range aggs {
			out += a.BatchesOut.Load()
		}
		if out == 0 {
			t.Fatalf("dc%d's tree forwarded nothing — the flat path must not have been used", m)
		}
	}
}

// TestAggregatorNodeCrashFailover splits dc0 into a partitions+services
// process and two single-aggregator processes (the multi-process tree),
// crashes one aggregator node mid-stream, and verifies replication to dc1
// continues through the surviving path and both datacenters converge.
func TestAggregatorNodeCrashFailover(t *testing.T) {
	net := simnet.New(func(from, to fabric.Addr) time.Duration { return 0 })
	cfg := Config{DCs: 2, Partitions: 4, Aggregators: 2, Delay: func(from, to fabric.Addr) time.Duration { return 0 }}

	// dc0: everything except the aggregators in one node; each aggregator
	// in its own node, as separate processes would host them.
	main0 := NewNode(NodeConfig{Config: cfg, DC: 0, Roles: RoleAll &^ RoleAggregator, Fabric: net})
	aggA := NewNode(NodeConfig{Config: cfg, DC: 0, Roles: RoleAggregator, Fabric: net, AggIndexes: []int{0}})
	aggB := NewNode(NodeConfig{Config: cfg, DC: 0, Roles: RoleAggregator, Fabric: net, AggIndexes: []int{1}})
	dc1 := NewNode(NodeConfig{Config: cfg, DC: 1, Roles: RoleAll, Fabric: net})
	nodes := []*Node{main0, aggB, dc1} // aggA is crashed mid-test
	defer func() {
		for _, n := range nodes {
			n.CloseIngress()
		}
		for _, n := range nodes {
			n.CloseServices()
		}
		net.Close()
	}()

	c := main0.NewClient()
	reader := dc1.NewClient()
	write := func(i int) {
		if err := c.Update(types.Key(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		write(i)
	}
	waitFor(t, 10*time.Second, func() bool {
		v, _ := reader.Read("k39")
		return string(v) == "v39"
	})

	// Crash one aggregator process mid-deployment and keep writing: the
	// surviving path must carry the rest of the stream.
	aggA.CloseIngress()
	aggA.CloseServices()
	for i := 40; i < 120; i++ {
		write(i)
	}
	waitFor(t, 20*time.Second, func() bool {
		v, _ := reader.Read("k119")
		return string(v) == "v119"
	})
	for i := 0; i < 120; i++ {
		v, _ := reader.Read(types.Key(fmt.Sprintf("k%d", i)))
		if string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%d lost through the aggregator crash: %q", i, v)
		}
	}
}

// TestAggTopologyDerivesParentsAndLevel pins the hosted aggregators'
// settings derived from their parents and indices: aggregator parents
// are redundant paths and make a leaf (level 1); replica parents make
// the tree's top, level 2 only when every hosted index lies outside the
// partition-facing fan-in set.
func TestAggTopologyDerivesParentsAndLevel(t *testing.T) {
	aggParents := []fabric.Addr{fabric.AggregatorAddr(0, 2), fabric.AggregatorAddr(0, 3)}
	euParents := []fabric.Addr{fabric.EunomiaAddr(0, 0)}
	for _, tc := range []struct {
		name          string
		idxs          []int
		parents       []fabric.Addr
		wantRedundant bool
		wantLevel     int
	}{
		{"whole-set-to-replicas", nil, nil, false, 1},
		{"fan-in-index-to-replicas", []int{0}, nil, false, 1},
		{"mixed-indexes-to-replicas", []int{1, 2}, euParents, false, 1},
		{"upper-indexes-to-replicas", []int{2, 3}, nil, false, 2},
		{"upper-indexes-to-named-replicas", []int{2}, euParents, false, 2},
		{"leaf-to-aggregators", []int{0, 1}, aggParents, true, 1},
		{"upper-indexes-to-aggregators", []int{4}, aggParents, true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			redundant, level := aggTopology(tc.idxs, 2, tc.parents)
			if redundant != tc.wantRedundant || level != tc.wantLevel {
				t.Fatalf("aggTopology(%v, 2, %v) = (%v, %d), want (%v, %d)",
					tc.idxs, tc.parents, redundant, level, tc.wantRedundant, tc.wantLevel)
			}
		})
	}
}
