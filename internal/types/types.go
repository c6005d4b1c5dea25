// Package types defines the identifiers and wire-level records shared by
// every module in the repository: keys and values, datacenter and partition
// identifiers, and the Update record that flows from partitions through the
// Eunomia service to remote datacenters.
//
// The package sits at the bottom of the dependency graph (it imports only
// internal/hlc and internal/vclock) so that substrates, the core protocol
// and the baselines can exchange data without import cycles.
package types

import (
	"fmt"

	"eunomia/internal/hlc"
	"eunomia/internal/vclock"
)

// Key identifies an object in the store. Keys are opaque strings; the
// key-space is divided into partitions by hashing (see Ring).
type Key string

// Value is an opaque object payload. The evaluation workloads use fixed
// 100-byte binaries, as in the paper, but the store accepts any size.
type Value []byte

// Clone returns an independent copy of the value. Storage layers clone
// on ingress so callers may reuse their buffers.
func (v Value) Clone() Value {
	if v == nil {
		return nil
	}
	c := make(Value, len(v))
	copy(c, v)
	return c
}

// DCID identifies a datacenter (geo-location). Datacenters are numbered
// densely from 0 to M-1.
type DCID int

// PartitionID identifies a logical partition within a datacenter.
// Partitions are numbered densely from 0 to N-1; partition i of datacenter
// m replicates the same key range as partition i of every other datacenter
// (its "sibling" partitions, in the paper's terminology).
type PartitionID int

// ReplicaID identifies a replica of the Eunomia service (or of a
// chain-replicated sequencer) within one datacenter.
type ReplicaID int

// Update is the record produced by a partition for every write it accepts
// (Algorithm 2 of the paper). The same record travels, possibly split into
// a metadata half and a payload half (§5, separation of data and metadata),
// from the origin partition to the local Eunomia service and on to every
// remote datacenter.
type Update struct {
	Key   Key
	Value Value

	// Origin is the datacenter at which the update was accepted.
	Origin DCID
	// Partition is the origin partition within Origin.
	Partition PartitionID
	// Seq is the per-origin-partition sequence number. It increases by
	// exactly one per update accepted by the partition and is used to
	// break timestamp ties deterministically and to assert FIFO delivery.
	Seq uint64

	// TS is the scalar timestamp assigned by the origin partition
	// (Algorithm 2, line 5). In geo-replicated mode it equals
	// VTS[Origin]. The sequencer-based baseline stores the sequence
	// number here (its total order per origin datacenter).
	TS hlc.Timestamp

	// HTS is the origin hybrid-clock timestamp used for last-writer-wins
	// version ordering in systems whose TS is not globally comparable
	// (the sequencer baseline, whose TS is a per-datacenter sequence
	// number). Systems with HLC timestamps leave it zero and use TS.
	HTS hlc.Timestamp

	// VTS is the vector timestamp with one entry per datacenter (§4).
	// It is nil when the system runs in single-datacenter mode
	// (e.g. the Figure 2/3/4 service-saturation experiments).
	VTS vclock.V

	// CreatedAt is the origin wall-clock instant (nanoseconds, as
	// returned by time.Now().UnixNano()) at which the update was tagged.
	// It is carried for measurement only and plays no role in the
	// protocol.
	CreatedAt int64
}

// ID returns the unique identifier of the update used for
// data/metadata matching and deduplication: the pair (local timestamp,
// key) is unique per origin datacenter because updates to the same key are
// serialized by a single partition, which assigns strictly increasing
// timestamps (Property 2).
func (u *Update) ID() UpdateID {
	return UpdateID{Origin: u.Origin, TS: u.TS, Key: u.Key}
}

// Meta returns a copy of the update with the payload stripped, i.e. the
// lightweight record shipped through Eunomia when data/metadata separation
// is enabled (§5).
func (u *Update) Meta() *Update {
	m := *u
	m.Value = nil
	return &m
}

// String implements fmt.Stringer for debugging and test failure output.
func (u *Update) String() string {
	return fmt.Sprintf("update{%s origin=dc%d p%d seq=%d ts=%s vts=%s}",
		u.Key, u.Origin, u.Partition, u.Seq, u.TS, u.VTS)
}

// PartitionBatch is one flush of one partition stream: the operations it
// ships, in ascending timestamp order, and the stream's watermark Mark
// (0: none), which promises that the stream issues nothing at or below it
// beyond Ops. A receiver holding the stream below Base refuses the whole
// entry, since a lost batch lies between what it holds and Ops; otherwise
// it ingests the operations above what it holds and raises the stream to
// Mark. An idle stream's entry has no operations and Base 0. Many
// entries share one fabric frame on the §5 propagation-tree hop.
type PartitionBatch struct {
	Partition PartitionID
	Base      hlc.Timestamp
	Ops       []*Update
	Mark      hlc.Timestamp
}

// PartitionMark pairs a partition with a timestamp: an acknowledgement
// watermark in a multi-batch reply.
type PartitionMark struct {
	Partition PartitionID
	TS        hlc.Timestamp
}

// UpdateID uniquely identifies an update across the whole deployment.
// See Update.ID for the uniqueness argument.
type UpdateID struct {
	Origin DCID
	TS     hlc.Timestamp
	Key    Key
}

// Version is a stored object version: the payload plus the metadata needed
// to order it against concurrent writes from other datacenters.
type Version struct {
	Value  Value
	TS     hlc.Timestamp
	VTS    vclock.V
	Origin DCID
}

// Newer reports whether v should supersede old under the deterministic
// last-writer-wins order used by the storage layer for concurrent
// cross-datacenter writes: order by scalar timestamp, then by origin
// datacenter as an arbitrary but deterministic tie-break.
func (v Version) Newer(old Version) bool {
	if v.TS != old.TS {
		return v.TS > old.TS
	}
	return v.Origin > old.Origin
}
