package chainedtable

import (
	"skewjoin/internal/hashfn"
	"skewjoin/internal/relation"
	"skewjoin/internal/sanitize"
)

// CompactTable is the single-owner build table: every bucket's entries are
// stored contiguously in one tuple array, with starts[b] marking where
// bucket b begins (starts has len buckets+1, so bucket b occupies
// entries[starts[b]:starts[b+1]]). Building costs a counting pass before
// the scatter; probing is a sequential scan of one bucket run.
//
// A table is reusable: Rebuild re-initialises it over new tuples in place,
// recycling its scratch, so a join worker that rebuilds one table per task
// stops allocating once the scratch reaches its high-water mark. A table
// that must outlive the next Rebuild — joinphase hands a split task's table
// to its probe sub-tasks — is simply not rebuilt again; the worker starts
// a fresh one for its next task.
type CompactTable struct {
	shift   uint32
	starts  []int32
	entries []relation.Tuple
}

// Build constructs a table over tuples with roughly one bucket per tuple
// (rounded up to a power of two). The tuple slice is only read, not
// retained.
//
//skewlint:hotpath
func Build(tuples []relation.Tuple) *CompactTable {
	t := &CompactTable{}
	t.Rebuild(tuples)
	return t
}

// Rebuild re-initialises t over tuples, reusing t's scratch when it has
// capacity and allocating otherwise. Counting pass → exclusive prefix sum →
// scatter → shift-down to restore starts. A zero CompactTable is ready for
// Rebuild.
//
//skewlint:hotpath
func (t *CompactTable) Rebuild(tuples []relation.Tuple) {
	nb := bucketCount(len(tuples))
	starts, entries := t.starts, t.entries
	if cap(starts) >= nb+1 {
		starts = starts[:nb+1]
	} else {
		starts = make([]int32, nb+1)
	}
	if cap(entries) >= len(tuples) {
		entries = entries[:len(tuples)]
	} else {
		entries = make([]relation.Tuple, len(tuples))
	}
	t.shift = 32 - hashfn.Log2(nb)
	t.starts = starts
	t.entries = entries
	for b := range starts {
		starts[b] = 0
	}
	for _, tp := range tuples {
		starts[hashfn.Mix32(uint32(tp.Key))>>t.shift]++
	}
	// Exclusive prefix sum: starts[b] becomes bucket b's first slot.
	sum := int32(0)
	for b := 0; b < nb; b++ {
		c := starts[b]
		starts[b] = sum
		sum += c
	}
	starts[nb] = sum
	// Scatter, advancing each bucket's cursor past its filled slots...
	for _, tp := range tuples {
		b := hashfn.Mix32(uint32(tp.Key)) >> t.shift
		entries[starts[b]] = tp
		starts[b]++
	}
	// ...which leaves starts[b] == end of bucket b == start of bucket b+1;
	// shift down one slot to restore the begin offsets.
	for b := nb; b >= 1; b-- {
		starts[b] = starts[b-1]
	}
	starts[0] = 0
	if sanitize.Enabled && int(starts[nb]) != len(tuples) {
		sanitize.Failf("chainedtable: compact build lost tuples (starts[%d]=%d, want %d)",
			nb, starts[nb], len(tuples))
	}
}

// Probe scans k's bucket sequentially, invoking fn for every matching
// tuple, and returns the number of entries inspected: the length of the
// chain a linked table would walk for k.
//
//skewlint:hotpath
func (t *CompactTable) Probe(k relation.Key, fn func(pr relation.Payload)) int {
	b := hashfn.Mix32(uint32(k)) >> t.shift
	lo, hi := t.starts[b], t.starts[b+1]
	for i := lo; i < hi; i++ {
		if t.entries[i].Key == k {
			fn(t.entries[i].Payload)
		}
	}
	return int(hi - lo)
}

// MaxChain returns the largest bucket's entry count: the longest chain, a
// direct measure of how badly skew degrades chained hashing. The join
// phase calls it once per build, so it sits on the task hot path.
//
//skewlint:hotpath
func (t *CompactTable) MaxChain() int {
	max := int32(0)
	for b := 0; b+1 < len(t.starts); b++ {
		if n := t.starts[b+1] - t.starts[b]; n > max {
			max = n
		}
	}
	return int(max)
}

// Len returns the number of tuples in the table.
func (t *CompactTable) Len() int { return len(t.entries) }

// Buckets returns the number of buckets.
func (t *CompactTable) Buckets() int { return len(t.starts) - 1 }
