package geostore

import (
	"fmt"
	"testing"
	"time"

	"eunomia/internal/fabric"
	"eunomia/internal/simnet"
	"eunomia/internal/types"
)

// splitDC is a two-datacenter deployment on one simnet: dc1 is a full
// node that originates traffic, and dc0 is split by role — partitions and
// Eunomia in one node, the receiver in another, so every dc0 release
// crosses the fabric between nodes — or colocated in one all-role node
// (parts and recv are then the same node), whose releases take the same
// windowed stream over the in-process fabric.
type splitDC struct {
	net      *simnet.Network
	partsNC  NodeConfig // how parts was opened, for restarts
	parts    *Node      // dc0 partitions + Eunomia
	recv     *Node      // dc0 receiver
	origin   *Node      // dc1, all roles
	shutdown bool
}

// deployments are the two dc0 shapes the release-path tests run over.
var deployments = []struct {
	name      string
	colocated bool
}{{"colocated", true}, {"split", false}}

func zeroDelayConfig() Config {
	return Config{DCs: 2, Partitions: 2, Delay: func(from, to fabric.Addr) time.Duration { return 0 }}
}

// newDC opens dc0 with nc's settings (Config, DataDir, WALSync,
// ReleaseWindow) on net, or on a zero-delay simnet when net is nil, and
// dc1 with nc's Config.
func newDC(t *testing.T, net *simnet.Network, colocated bool, nc NodeConfig) *splitDC {
	t.Helper()
	if net == nil {
		net = simnet.New(nil)
	}
	nc.DC, nc.Fabric = 0, net
	s := &splitDC{net: net, partsNC: nc}
	if colocated {
		s.partsNC.Roles = RoleAll
		s.parts = NewNode(s.partsNC)
		s.recv = s.parts
	} else {
		s.partsNC.Roles = RolePartitions | RoleEunomia
		s.parts = NewNode(s.partsNC)
		recvNC := nc
		recvNC.Roles = RoleReceiver
		s.recv = NewNode(recvNC)
	}
	s.origin = NewNode(NodeConfig{Config: nc.Config, DC: 1, Roles: RoleAll, Fabric: net})
	t.Cleanup(s.close)
	return s
}

func newSplitDC(t *testing.T, window int) *splitDC {
	t.Helper()
	return newDC(t, nil, false, NodeConfig{Config: zeroDelayConfig(), ReleaseWindow: window})
}

func (s *splitDC) nodes() []*Node {
	if s.recv == s.parts {
		return []*Node{s.parts, s.origin}
	}
	return []*Node{s.parts, s.recv, s.origin}
}

func (s *splitDC) close() {
	if s.shutdown {
		return
	}
	s.shutdown = true
	for _, n := range s.nodes() {
		n.CloseIngress()
	}
	for _, n := range s.nodes() {
		n.CloseServices()
	}
	s.net.Close()
}

// crashParts stops dc0's partition-hosting node (and with it the
// receiver, when colocated) the way a killed process stops.
func (s *splitDC) crashParts() {
	s.parts.CloseIngress()
	s.parts.CloseServices()
}

// restartParts reopens dc0's partition-hosting node from its data dir.
func (s *splitDC) restartParts(t *testing.T) *Node {
	t.Helper()
	colocated := s.recv == s.parts
	n, err := OpenNode(s.partsNC)
	if err != nil {
		t.Fatalf("restart from %s: %v", s.partsNC.DataDir, err)
	}
	s.parts = n
	if colocated {
		s.recv = n
	}
	return n
}

func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// writePairs issues n causally chained data/flag pairs at dc1 (keys
// namespaced by prefix) and returns a checker that verifies, at dc0, both
// visibility and the causal invariant (a visible flag implies its visible
// data).
func writePairs(t *testing.T, s *splitDC, prefix string, n int) func() {
	t.Helper()
	w := s.origin.NewClient()
	for i := 0; i < n; i++ {
		if err := w.Update(types.Key(fmt.Sprintf("%sdata%d", prefix, i)), []byte(fmt.Sprintf("payload%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := w.Update(types.Key(fmt.Sprintf("%sflag%d", prefix, i)), []byte("set")); err != nil {
			t.Fatal(err)
		}
	}
	return func() {
		t.Helper()
		r := s.parts.NewClient()
		for i := 0; i < n; i++ {
			flag := types.Key(fmt.Sprintf("%sflag%d", prefix, i))
			data := types.Key(fmt.Sprintf("%sdata%d", prefix, i))
			waitUntil(t, 20*time.Second, string(flag), func() bool {
				v, _ := r.Read(flag)
				if string(v) != "set" {
					return false
				}
				d, _ := r.Read(data)
				if string(d) != fmt.Sprintf("payload%d", i) {
					t.Fatalf("pair %d: flag visible without data (windowed release broke causal order)", i)
				}
				return true
			})
		}
	}
}

func (s *splitDC) remoteApplied() int64 {
	var total int64
	for _, p := range s.parts.parts {
		total += p.RemoteApplied.Load()
	}
	return total
}

// TestWindowedReleaseDuplicateDedup delivers every release (and every
// acknowledgement) in triplicate and checks each update is applied exactly
// once, in causal order.
func TestWindowedReleaseDuplicateDedup(t *testing.T) {
	s := newSplitDC(t, 0)
	s.net.SetDuplicate(fabric.ReceiverAddr(0), fabric.ApplierAddr(0), 2)
	s.net.SetDuplicate(fabric.ApplierAddr(0), fabric.ReceiverAddr(0), 2)

	const pairs = 25
	check := writePairs(t, s, "", pairs)
	check()

	if got := s.remoteApplied(); got != 2*pairs {
		t.Fatalf("dc0 applied %d remote updates, want exactly %d (duplicates must be dropped)", got, 2*pairs)
	}
}

// TestWindowedReleaseOutageResume cuts the release stream mid-window,
// verifies the stream stalls with in-flight releases, then heals the link
// and checks the retransmission pass delivers everything in order.
func TestWindowedReleaseOutageResume(t *testing.T) {
	s := newSplitDC(t, 0)

	// Cut receiver→applier: releases leave the window but never arrive.
	s.net.SetDrop(fabric.ReceiverAddr(0), fabric.ApplierAddr(0), true)

	const pairs = 10
	check := writePairs(t, s, "", pairs)

	waitUntil(t, 10*time.Second, "releases to enter the window", func() bool {
		return s.recv.ReleaseInflight() > 0
	})
	if got := s.remoteApplied(); got != 0 {
		t.Fatalf("dc0 applied %d updates while the release link was down", got)
	}

	s.net.SetDrop(fabric.ReceiverAddr(0), fabric.ApplierAddr(0), false)
	check()

	if s.recv.ReleaseResent() == 0 {
		t.Fatal("recovery applied updates without any retransmission — outage was not exercised")
	}
	waitUntil(t, 10*time.Second, "window to drain", func() bool {
		return s.recv.ReleaseInflight() == 0
	})
	if got := s.remoteApplied(); got != 2*pairs {
		t.Fatalf("dc0 applied %d remote updates, want exactly %d", got, 2*pairs)
	}
}

// TestWindowedReleaseReceiverRestart replaces the receiver process
// mid-run: the successor's release stream restarts at sequence 1 under a
// fresh epoch, and the applier must reset its duplicate filter for it
// instead of discarding (and fake-acking) the whole new stream.
func TestWindowedReleaseReceiverRestart(t *testing.T) {
	s := newSplitDC(t, 0)

	check := writePairs(t, s, "one-", 5)
	check()

	// "Restart" the receiver process: stop the old node and register a
	// fresh one at the same fabric addresses (a new epoch, sequences
	// from 1).
	s.recv.CloseServices()
	cfg := Config{DCs: 2, Partitions: 2, Delay: func(from, to fabric.Addr) time.Duration { return 0 }}
	s.recv = NewNode(NodeConfig{Config: cfg, DC: 0, Roles: RoleReceiver, Fabric: s.net})

	check2 := writePairs(t, s, "two-", 5)
	check2()

	waitUntil(t, 10*time.Second, "new window to drain", func() bool {
		return s.recv.ReleaseInflight() == 0
	})
}

// TestWindowedReleasePartitionRestartDetected replaces the partition
// process mid-stream: the fresh applier has none of the dead
// incarnation's sequence state, the window's pruned prefix cannot be
// rebuilt, and the stream must wedge loudly (ReleaseWedged) instead of
// retransmitting into the void forever.
func TestWindowedReleasePartitionRestartDetected(t *testing.T) {
	s := newSplitDC(t, 0)

	check := writePairs(t, s, "pre-", 5)
	check()

	// "Restart" the partition process: stop the old node, register a
	// fresh one (empty kv state, fresh applier) at the same addresses.
	s.parts.CloseIngress()
	s.parts.CloseServices()
	cfg := Config{DCs: 2, Partitions: 2, Delay: func(from, to fabric.Addr) time.Duration { return 0 }}
	s.parts = NewNode(NodeConfig{Config: cfg, DC: 0, Roles: RolePartitions | RoleEunomia, Fabric: s.net})

	// New traffic releases at sequence numbers far past what the fresh
	// applier has seen; the window must detect the unrecoverable stream.
	writePairs(t, s, "post-", 5)
	waitUntil(t, 10*time.Second, "stream to be declared unrecoverable", func() bool {
		return s.recv.ReleaseWedged()
	})
}

// TestWindowedReleaseBackpressureBound checks the release path's memory
// bound while the partition process is unreachable: the in-flight window
// stops at its limit, the receiver keeps buffering shipped metadata in its
// own queues, and everything drains after the link heals.
func TestWindowedReleaseBackpressureBound(t *testing.T) {
	const window = 8
	s := newSplitDC(t, window)
	s.net.SetDrop(fabric.ReceiverAddr(0), fabric.ApplierAddr(0), true)

	const pairs = 30 // 60 updates, far beyond the window
	check := writePairs(t, s, "", pairs)

	waitUntil(t, 10*time.Second, "window to fill to its bound", func() bool {
		return s.recv.ReleaseInflight() == window
	})
	// The remaining updates must be parked in the receiver's queues, not
	// in flight; sample for a while to catch any overshoot.
	for i := 0; i < 50; i++ {
		if got := s.recv.ReleaseInflight(); got > window {
			t.Fatalf("in-flight window grew to %d, bound is %d", got, window)
		}
		time.Sleep(2 * time.Millisecond)
	}
	waitUntil(t, 10*time.Second, "receiver to buffer the overflow", func() bool {
		return s.recv.Receiver().QueueLen(1) > 0
	})

	s.net.SetDrop(fabric.ReceiverAddr(0), fabric.ApplierAddr(0), false)
	check()
	waitUntil(t, 10*time.Second, "window to drain", func() bool {
		return s.recv.ReleaseInflight() == 0 && s.parts.ApplierPending() == 0
	})
	if got := s.remoteApplied(); got != 2*pairs {
		t.Fatalf("dc0 applied %d remote updates, want exactly %d", got, 2*pairs)
	}
}

// TestWindowedReleaseAsymmetricAckLoss partitions exactly one direction of
// the release stream — the applier's acknowledgements are dropped while
// releases keep flowing (simnet.SetDrop is inherently one-way, the same
// shape as "partition dc0<-dc1" in the faults DSL). Updates must still
// become visible in causal order, the stall must be loud (a growing
// retransmission counter and an undrained window) without wedging, the
// timeout-driven re-releases must be absorbed exactly once, and the heal
// must drain the window and carry new traffic cleanly.
func TestWindowedReleaseAsymmetricAckLoss(t *testing.T) {
	s := newSplitDC(t, 0)
	s.net.SetDrop(fabric.ApplierAddr(0), fabric.ReceiverAddr(0), true)

	const pairs = 10
	check := writePairs(t, s, "", pairs)
	// The forward direction is intact: everything applies, causally.
	check()

	// The stall is loud, not silent: with no acknowledgements the window
	// never drains and the receiver re-releases on timeout...
	waitUntil(t, 10*time.Second, "ack starvation to force retransmissions", func() bool {
		return s.recv.ReleaseResent() > 0
	})
	if got := s.recv.ReleaseInflight(); got == 0 {
		t.Fatal("window drained without a single acknowledgement")
	}
	// ...but it is a stall, not a death: nothing diagnoses a wedge, and
	// the applier absorbs every re-release (exactly-once holds mid-fault).
	if s.recv.ReleaseWedged() {
		t.Fatal("one-direction ack loss must not wedge the stream")
	}
	if got := s.remoteApplied(); got != 2*pairs {
		t.Fatalf("dc0 applied %d remote updates during ack loss, want exactly %d (re-releases leaked)", got, 2*pairs)
	}

	// Heal the one direction: pending acknowledgements drain the window.
	s.net.SetDrop(fabric.ApplierAddr(0), fabric.ReceiverAddr(0), false)
	waitUntil(t, 10*time.Second, "window to drain after heal", func() bool {
		return s.recv.ReleaseInflight() == 0
	})
	if got := s.remoteApplied(); got != 2*pairs {
		t.Fatalf("dc0 applied %d remote updates after heal, want exactly %d", got, 2*pairs)
	}

	// The healed stream carries new traffic with no residue.
	writePairs(t, s, "post-", 3)()
	waitUntil(t, 10*time.Second, "post-heal window to drain", func() bool {
		return s.recv.ReleaseInflight() == 0
	})
	if got := s.remoteApplied(); got != 2*(pairs+3) {
		t.Fatalf("dc0 applied %d remote updates post-heal, want exactly %d", got, 2*(pairs+3))
	}
}

// TestParkedApplierIsNotPolled: an applier parked on a missing payload
// waits for the payload instead of polling for it, colocated with its
// receiver or not. Every dc1→dc0 payload is held 300ms while metadata
// and releases cross at once, so the release parks at the applier for
// about that long. The responsible partition's PayloadWait may rise by a
// handful (the first attempt and any retry another wake causes), not once
// per poll, and the payload's arrival must make the update visible within
// 50ms.
func TestParkedApplierIsNotPolled(t *testing.T) {
	for _, d := range deployments {
		t.Run(d.name, func(t *testing.T) {
			const hold = 300 * time.Millisecond
			cfg := Config{DCs: 2, Partitions: 2}
			held := func(from, to fabric.Addr) bool {
				for p := 0; p < cfg.Partitions; p++ {
					if from == fabric.PartitionAddr(1, types.PartitionID(p)) && to == fabric.PartitionAddr(0, types.PartitionID(p)) {
						return true
					}
				}
				return false
			}
			type seen struct{ arrived, visible time.Time }
			visible := make(chan seen, 1)
			cfg.OnVisible = func(dest types.DCID, u *types.Update, arrived time.Time) {
				if dest == 0 && u.Key == "parked" {
					visible <- seen{arrived, time.Now()}
				}
			}
			net := simnet.New(func(from, to fabric.Addr) time.Duration {
				if held(from, to) {
					return hold
				}
				return 0
			})
			s := newDC(t, net, d.colocated, NodeConfig{Config: cfg})
			writePairs(t, s, "warm-", 1)()

			part := s.parts.Partition(s.parts.ring.Responsible("parked"))
			before := part.PayloadWait.Load()
			if err := s.origin.NewClient().Update("parked", []byte("v")); err != nil {
				t.Fatal(err)
			}
			var got seen
			select {
			case got = <-visible:
			case <-time.After(10 * time.Second):
				t.Fatal("parked update never became visible")
			}
			waits := part.PayloadWait.Load() - before
			if waits < 1 {
				t.Fatal("the release never parked on its payload; the hold was not exercised")
			}
			if waits > 5 {
				t.Fatalf("PayloadWait rose by %d over a %v park, want at most 5: the parked applier is polling", waits, hold)
			}
			lag := got.visible.Sub(got.arrived)
			if lag > 50*time.Millisecond {
				t.Fatalf("update became visible %v after its payload arrived, want at most 50ms", lag)
			}
			t.Logf("PayloadWait +%d over the park; visible %v after the payload arrived", waits, lag)
		})
	}
}

// TestHealerKeepsOnlyTrackedVerdicts: a superseded verdict for an update
// the healer is not pulling (its payload arrived and it applied while the
// verdict was in flight) must leave no state behind; a verdict for a
// tracked update is recorded and wakes the applier.
func TestHealerKeepsOnlyTrackedVerdicts(t *testing.T) {
	verdict := func(id types.UpdateID) fabric.Message {
		return fabric.Message{From: fabric.PartitionAddr(1, 0), To: fabric.ApplierAddr(0), Payload: PayloadSupersededMsg{ID: id}}
	}
	s := newSplitDC(t, 0)
	h := s.parts.app.healer
	s.parts.app.handle(verdict(types.UpdateID{Origin: 1, TS: 10, Key: "late"}))
	h.mu.Lock()
	left := len(h.skips) + len(h.lastPull)
	h.mu.Unlock()
	if left != 0 {
		t.Fatalf("an untracked verdict left %d healer entries, want 0", left)
	}

	wakes := 0
	h = newPayloadHealer(s.parts, func() { wakes++ })
	parked := types.UpdateID{Origin: 1, TS: 20, Key: "parked"}
	h.lastPull[parked] = time.Now() // a crash suspect the healer is pulling
	h.handle(verdict(parked))
	if !h.skips[parked] || wakes != 1 {
		t.Fatalf("tracked verdict: recorded=%v wakes=%d, want true and 1", h.skips[parked], wakes)
	}
	h.forget(parked)
	if left := len(h.skips) + len(h.lastPull); left != 0 {
		t.Fatalf("forget left %d healer entries, want 0", left)
	}
}
