// Package ordered defines the ordered pending-operation set abstraction at
// the heart of the Eunomia service, and the key by which operations are
// ordered.
//
// Eunomia must hold a potentially very large set of unstable updates coming
// from all partitions of a datacenter and, every stabilization period,
// extract-in-order every update with timestamp <= StableTime (§6 of the
// paper). Every deployment runs internal/runs, which keeps one sorted run
// per partition stream, since each stream arrives in timestamp order, and
// merges the runs on extraction. The paper implements the set with a
// red-black tree and reports that it outperformed an AVL tree; both trees
// are kept (internal/rbtree, internal/avltree) behind this package's Set
// interface so that claim can be re-checked beside the run set
// (BenchmarkAblationTreeChoice).
package ordered

import "eunomia/internal/hlc"

// Key orders pending operations: primarily by timestamp, then by origin
// partition and per-partition sequence number. The (Partition, Seq) suffix
// makes keys unique — updates from different partitions may legitimately
// carry equal timestamps (they are concurrent, and Eunomia may serialize
// them in any order; we pick partition order for determinism).
type Key struct {
	TS        hlc.Timestamp
	Partition int32
	Seq       uint64
}

// Less reports whether k orders strictly before o.
func (k Key) Less(o Key) bool {
	if k.TS != o.TS {
		return k.TS < o.TS
	}
	if k.Partition != o.Partition {
		return k.Partition < o.Partition
	}
	return k.Seq < o.Seq
}

// Compare returns -1, 0 or +1 as k orders before, equal to or after o.
func (k Key) Compare(o Key) int {
	switch {
	case k.Less(o):
		return -1
	case o.Less(k):
		return 1
	default:
		return 0
	}
}

// Set is an ordered map from Key to V supporting the three operations the
// stabilization loop needs: insert, size, and ordered bulk extraction of
// every entry up to a stability threshold.
//
// Implementations need not be safe for concurrent use; the Eunomia replica
// serializes access on its own mutex.
type Set[V any] interface {
	// Insert adds (k, v). Inserting an existing key replaces its value
	// and returns false; fresh inserts return true.
	Insert(k Key, v V) bool
	// Len returns the number of entries.
	Len() int
	// Min returns the smallest key, or ok=false when empty.
	Min() (k Key, v V, ok bool)
	// ExtractUpTo removes and returns, in ascending key order, every
	// entry whose key timestamp is <= max. This is the FIND_STABLE +
	// removal step of Algorithm 3 lines 9-11.
	ExtractUpTo(max hlc.Timestamp) []V
	// Ascend visits entries in ascending key order until fn returns
	// false. It must not modify the set.
	Ascend(fn func(Key, V) bool)
}
