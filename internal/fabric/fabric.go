// Package fabric defines the message-passing substrate every inter-process
// edge of the system runs on: partition→Eunomia metadata batches and their
// acknowledgement watermarks, Eunomia-leader→remote-receiver shipping,
// partition→partition payload replication, and receiver→partition remote
// application.
//
// A Fabric delivers opaque payloads between named endpoints with the two
// properties the protocols assume of their channels (§3.1, §4 of the
// paper):
//
//   - FIFO order between any ordered pair of endpoints;
//   - at-least-once delivery tolerated downstream: every consumer
//     deduplicates (replicas by partition watermark, receivers by origin
//     timestamp, partitions by update id), so a fabric may duplicate or
//     replay messages after a reconnect without violating correctness.
//
// Two implementations exist: internal/simnet, the in-process simulated WAN
// (configurable delays, drop and duplication injection) every test and
// figure harness runs on, and internal/transport, a real TCP backend with
// a pipelined, length-framed codec and windowed acknowledgements, which
// cmd/eunomia-server uses to run a multi-process datacenter. Deployment
// code (internal/geostore) is written against this interface only and runs
// unchanged over either.
package fabric

import (
	"fmt"
	"time"

	"eunomia/internal/types"
)

// Addr identifies an endpoint: a named process within a datacenter.
type Addr struct {
	DC   types.DCID
	Name string
}

// String renders "dc1/partition3"-style addresses.
func (a Addr) String() string { return fmt.Sprintf("dc%d/%s", a.DC, a.Name) }

// PartitionAddr names partition p of datacenter dc.
func PartitionAddr(dc types.DCID, p types.PartitionID) Addr {
	return Addr{DC: dc, Name: fmt.Sprintf("partition%d", p)}
}

// EunomiaAddr names Eunomia replica r of datacenter dc.
func EunomiaAddr(dc types.DCID, r types.ReplicaID) Addr {
	return Addr{DC: dc, Name: fmt.Sprintf("eunomia%d", r)}
}

// ReceiverAddr names the geo-replication receiver of datacenter dc.
func ReceiverAddr(dc types.DCID) Addr { return Addr{DC: dc, Name: "receiver"} }

// AggregatorAddr names fan-in aggregator i of datacenter dc's §5
// propagation tree: the endpoint partitions stream their metadata at
// (instead of the replica set) in wide datacenters, and the endpoint a
// deeper tree's child aggregators merge into.
func AggregatorAddr(dc types.DCID, i int) Addr {
	return Addr{DC: dc, Name: fmt.Sprintf("aggregator%d", i)}
}

// ApplierAddr names the remote-release applier of datacenter dc: the
// single ordered ingress the partition-hosting process exposes for the
// receiver's windowed release stream. A single address (rather than the
// per-partition ones) matters because the stream's apply order is the
// causal order — one ordered endpoint pair means one FIFO channel on any
// fabric implementation.
func ApplierAddr(dc types.DCID) Addr { return Addr{DC: dc, Name: "applier"} }

// FrontendAddr names client front door i of datacenter dc: the endpoint a
// frontend's partition and receiver round trips are acknowledged at.
// Frontends are stateless peers (every causal fact rides in the client's
// session token), so a datacenter scales its front door horizontally by
// running more indexes.
func FrontendAddr(dc types.DCID, i int) Addr {
	return Addr{DC: dc, Name: fmt.Sprintf("frontend%d", i)}
}

// StabilizerAddr names the GentleRain/Cure stabilizer of datacenter dc.
func StabilizerAddr(dc types.DCID) Addr { return Addr{DC: dc, Name: "stabilizer"} }

// SequencerAddr names sequencer replica r of datacenter dc.
func SequencerAddr(dc types.DCID, r types.ReplicaID) Addr {
	return Addr{DC: dc, Name: fmt.Sprintf("sequencer%d", r)}
}

// Message is one fabric datagram. Payload is an arbitrary protocol struct;
// the fabric never inspects it (TCP backends encode it with the wire codec,
// so concrete payload types must implement wire.Marshaler and be announced
// with wire.Register).
type Message struct {
	From, To Addr
	Payload  any
	// SentAt is stamped by Send; receivers use it for latency metrics.
	SentAt time.Time
}

// Handler consumes delivered messages. Handlers run on fabric delivery
// goroutines and must be quick or hand off internally.
type Handler func(Message)

// Fabric is the substrate interface. All methods are safe for concurrent
// use.
type Fabric interface {
	// Register installs the handler for an address, replacing any
	// previous registration.
	Register(a Addr, h Handler)
	// Unregister removes an endpoint; subsequent messages to it are
	// dropped. This models a process crash.
	Unregister(a Addr)
	// Send queues a message for asynchronous delivery. Messages between
	// the same ordered pair of endpoints are delivered in send order.
	// Sends to unknown endpoints are dropped.
	Send(from, to Addr, payload any)
	// Close shuts the fabric down; in-flight and future sends are
	// dropped.
	Close()
}
