// Package runs implements Eunomia's pending set as one sorted run per
// partition stream, merged in key order on extraction.
//
// A stream reaches its replica in timestamp order, and the replica ingests
// only the operations above the stream's watermark (see the stream rule in
// internal/eunomia). So every insert from a partition sorts after that
// partition's previous one, and the pending set is P already-sorted runs.
// Insert appends to its partition's run: O(1), with no allocation once the
// run's backing array has grown to its working size. The red-black tree of
// the paper's §6 re-sorts the same data at O(log n) and one node
// allocation per insert. ExtractUpTo binary-searches each run's cut at the
// stable time and merges the cut prefixes in ordered.Key order with a
// loser tree over the run heads: one key comparison per tree level for
// each entry, where a binary heap's sift-down takes up to two.
//
// A key that does not sort after its run's tail, which the replica never
// inserts, is placed by a binary-search insert within its run, so Set
// meets the whole ordered.Set contract.
package runs

import (
	"slices"
	"sort"

	"eunomia/internal/hlc"
	"eunomia/internal/ordered"
)

type entry[V any] struct {
	key ordered.Key
	val V
}

// run holds one partition's entries in ascending key order. Entries before
// head have been extracted and their slots zeroed, so the collector frees
// what they referenced; the consumed prefix is compacted away once it
// passes half the slice, so in steady state the run reuses its array.
// An array far larger than the run's recent traffic, left by a stall that
// has drained, is swapped for a smaller one at compaction.
type run[V any] struct {
	items []entry[V]
	head  int
}

func (r *run[V]) live() []entry[V] { return r.items[r.head:] }

// consume drops the live entries below index end.
func (r *run[V]) consume(end int) {
	clear(r.items[r.head:end])
	r.head = end
	if 2*r.head > len(r.items) {
		r.compact()
	}
}

// shrinkFloor is the capacity, in entries, below which a run keeps its
// array whatever its traffic.
const shrinkFloor = 256

// compact moves the live entries to the front of the array. len(r.items)
// counts the entries the run held since its previous compaction; an array
// more than four times that moves to one twice that size.
func (r *run[V]) compact() {
	if used := len(r.items); cap(r.items) > max(shrinkFloor, 4*used) {
		items := make([]entry[V], len(r.items)-r.head, 2*used)
		copy(items, r.items[r.head:])
		r.items, r.head = items, 0
		return
	}
	n := copy(r.items, r.items[r.head:])
	clear(r.items[max(n, r.head):])
	r.items = r.items[:n]
	r.head = 0
}

// cursor is a merge position: the rest of one run's entries taking part in
// the merge. end is the index in the run's array where they stop.
type cursor[V any] struct {
	items []entry[V]
	run   int
	end   int
}

// merger merges cursors in key order with a loser tree. Cursor i is leaf
// k+i of an implicit binary tree over nodes 1..2k-1, in which node j has
// children 2j and 2j+1; each internal node holds the cursor that lost the
// match played there, and tree[0] the overall winner. Taking the winner's
// head replays only the winner's path to the root. An exhausted cursor
// loses every match. Keys of different runs differ in Partition, so no
// two heads tie. Its slices are reused from merge to merge.
type merger[V any] struct {
	cur  []cursor[V]
	tree []int32 // tree[0] the winner; tree[j], 0 < j < k, a loser
	win  []int32 // build scratch: the winner at each node
}

// less reports whether cursor a's head orders before cursor b's.
func (m *merger[V]) less(a, b int32) bool {
	x, y := m.cur[a].items, m.cur[b].items
	if len(x) == 0 {
		return false
	}
	return len(y) == 0 || x[0].key.Less(y[0].key)
}

// build plays the tournament over m.cur, which must not be empty.
func (m *merger[V]) build() {
	k := len(m.cur)
	m.tree = slices.Grow(m.tree[:0], k)[:k]
	m.win = slices.Grow(m.win[:0], 2*k)[:2*k]
	for i := 0; i < k; i++ {
		m.win[k+i] = int32(i)
	}
	for j := k - 1; j > 0; j-- {
		a, b := m.win[2*j], m.win[2*j+1]
		if m.less(b, a) {
			a, b = b, a
		}
		m.win[j], m.tree[j] = a, b
	}
	m.tree[0] = m.win[1]
}

// replay restores the tournament after the winner's head moved: one
// comparison per level on its path.
func (m *merger[V]) replay() {
	w := m.tree[0]
	wi := m.cur[w].items
	for j := (len(m.tree) + int(w)) / 2; j > 0; j /= 2 {
		l := m.tree[j]
		if li := m.cur[l].items; len(li) > 0 && (len(wi) == 0 || li[0].key.Less(wi[0].key)) {
			m.tree[j], w, wi = w, l, li
		}
	}
	m.tree[0] = w
}

// reset drops the cursors' references to the runs' arrays.
func (m *merger[V]) reset() {
	clear(m.cur)
	m.cur = m.cur[:0]
}

// Set is the run set, keyed by ordered.Key and indexed by Key.Partition,
// which must not be negative. It implements ordered.Set[V]. Construct
// with New.
type Set[V any] struct {
	runs  []run[V] // by partition
	size  int
	merge merger[V]
}

// New returns an empty set.
func New[V any]() *Set[V] { return &Set[V]{} }

// Len returns the number of entries.
func (s *Set[V]) Len() int { return s.size }

// Insert adds (k, v), replacing the value if k is already present. It
// returns true for a fresh insert, false for a replacement.
func (s *Set[V]) Insert(k ordered.Key, v V) bool {
	if k.Partition < 0 {
		panic("runs: negative partition in key")
	}
	if int(k.Partition) >= len(s.runs) {
		s.runs = append(s.runs, make([]run[V], int(k.Partition)+1-len(s.runs))...)
	}
	r := &s.runs[k.Partition]
	if n := len(r.items); n == r.head || r.items[n-1].key.Less(k) {
		r.items = append(r.items, entry[V]{k, v})
		s.size++
		return true
	}
	live := r.live()
	i := sort.Search(len(live), func(j int) bool { return !live[j].key.Less(k) })
	if i < len(live) && live[i].key == k {
		live[i].val = v
		return false
	}
	r.items = slices.Insert(r.items, r.head+i, entry[V]{k, v})
	s.size++
	return true
}

// Min returns the smallest key, or ok=false when the set is empty.
func (s *Set[V]) Min() (k ordered.Key, v V, ok bool) {
	for p := range s.runs {
		if live := s.runs[p].live(); len(live) > 0 && (!ok || live[0].key.Less(k)) {
			k, v, ok = live[0].key, live[0].val, true
		}
	}
	return k, v, ok
}

// ExtractUpTo removes and returns, in ascending key order, every entry
// whose key timestamp is at or below max. Its one allocation is the
// result.
func (s *Set[V]) ExtractUpTo(max hlc.Timestamp) []V {
	m := &s.merge
	total := 0
	for p := range s.runs {
		r := &s.runs[p]
		live := r.live()
		cut := sort.Search(len(live), func(j int) bool { return live[j].key.TS > max })
		if cut > 0 {
			m.cur = append(m.cur, cursor[V]{items: live[:cut], run: p, end: r.head + cut})
			total += cut
		}
	}
	if total == 0 {
		return nil
	}
	defer m.reset()
	out := make([]V, 0, total)
	m.build()
	for live := len(m.cur); live > 1; m.replay() {
		c := &m.cur[m.tree[0]]
		out = append(out, c.items[0].val)
		if c.items = c.items[1:]; len(c.items) == 0 {
			s.runs[c.run].consume(c.end)
			live--
		}
	}
	// One cursor is left: the rest of its cut follows in order.
	c := &m.cur[m.tree[0]]
	for _, e := range c.items {
		out = append(out, e.val)
	}
	s.runs[c.run].consume(c.end)
	s.size -= total
	return out
}

// Ascend visits entries in ascending key order until fn returns false. fn
// must not call back into the set: the merge's scratch is the set's.
func (s *Set[V]) Ascend(fn func(ordered.Key, V) bool) {
	m := &s.merge
	for p := range s.runs {
		if live := s.runs[p].live(); len(live) > 0 {
			m.cur = append(m.cur, cursor[V]{items: live, run: p})
		}
	}
	if len(m.cur) == 0 {
		return
	}
	defer m.reset()
	m.build()
	for {
		c := &m.cur[m.tree[0]]
		if len(c.items) == 0 || !fn(c.items[0].key, c.items[0].val) {
			return
		}
		c.items = c.items[1:]
		m.replay()
	}
}
