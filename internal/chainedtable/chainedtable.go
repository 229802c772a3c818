// Package chainedtable implements the hash tables the joins build.
//
// Both Cbase and Gbase use chained hashing (§III). All tuples with the same
// key hash into the same bucket, so a popular key produces one long chain;
// probing it costs one visit plus a key comparison per bucket entry. That
// behaviour — the paper's central criticism of the baselines under skew —
// is reproduced faithfully here: a probe inspects every entry of its key's
// bucket, and the visit count it returns is the chain length.
//
// Three tables are provided:
//
//   - CompactTable: the single-owner table built over one partition (Cbase
//     and CSH join tasks, the GPU NM-join blocks of Gbase and GSH). It
//     stores each bucket's entries contiguously instead of linking them.
//     It uses the same bucket count and the same hash as a linked chain
//     would, so a bucket holds exactly the entries of the corresponding
//     chain: probe visits, the longest bucket (MaxChain), GPU warp
//     divergence and modelled device time are those of the paper's chained
//     table. Only the host memory layout differs — a probe scans one
//     contiguous run instead of following one dependent link per node.
//   - Concurrent: a latch-free shared chained table built by many threads
//     with CAS head insertion (cbase-npj builds one over the whole of R).
//   - Incremental: a growable chained table for the streaming symmetric
//     hash join, whose inputs are never complete.
package chainedtable

import (
	"sync/atomic"

	"skewjoin/internal/hashfn"
	"skewjoin/internal/relation"
	"skewjoin/internal/sanitize"
)

// bucketCount returns the bucket count for n tuples: the next power of two,
// clamped below at one. The seed forced a 2-bucket minimum, which made the
// bucket-clear loop and bucket hashing pure overhead on the 1-tuple
// partitions that dominate high-fanout task counts; a single bucket (shift
// 32, so every key maps to bucket 0) serves those exactly as well.
func bucketCount(n int) int {
	nb := hashfn.NextPow2(n)
	if nb < 1 {
		nb = 1
	}
	return nb
}

// Concurrent is a shared chained hash table built by multiple threads.
// Insertion pushes onto the bucket head with a CAS loop, the standard
// latch-free technique no-partition joins use.
type Concurrent struct {
	shift  uint32
	heads  []atomic.Int32
	next   []int32
	tuples []relation.Tuple
}

// NewConcurrent allocates a concurrent table sized for the given tuple
// slice. Tuples are inserted afterwards via Insert, typically from many
// threads over disjoint index ranges.
func NewConcurrent(tuples []relation.Tuple) *Concurrent {
	nb := bucketCount(len(tuples))
	c := &Concurrent{
		shift:  32 - hashfn.Log2(nb),
		heads:  make([]atomic.Int32, nb),
		next:   make([]int32, len(tuples)),
		tuples: tuples,
	}
	for b := range c.heads {
		c.heads[b].Store(-1)
	}
	return c
}

// Insert links tuple index i into its bucket. Each index must be inserted
// exactly once; different threads must insert disjoint indexes.
//
//skewlint:hotpath
func (c *Concurrent) Insert(i int) {
	b := hashfn.Mix32(uint32(c.tuples[i].Key)) >> c.shift
	for {
		old := c.heads[b].Load()
		c.next[i] = old
		if c.heads[b].CompareAndSwap(old, int32(i)) {
			return
		}
	}
}

// Probe walks the chain of k's bucket, invoking fn for matches, and returns
// the number of nodes visited. Probe must not run concurrently with Insert.
//
//skewlint:hotpath
func (c *Concurrent) Probe(k relation.Key, fn func(pr relation.Payload)) int {
	visited := 0
	for i := c.heads[hashfn.Mix32(uint32(k))>>c.shift].Load(); i >= 0; i = c.next[i] {
		visited++
		if sanitize.Enabled && visited > len(c.tuples) {
			sanitize.Failf("chainedtable: cycle in bucket chain for key %d (visited %d nodes, table holds %d tuples)",
				k, visited, len(c.tuples))
		}
		if c.tuples[i].Key == k {
			fn(c.tuples[i].Payload)
		}
	}
	return visited
}
