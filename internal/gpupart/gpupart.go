// Package gpupart holds the pieces of GPU partitioning shared by Gbase and
// GSH: fanout selection targeting shared-memory-sized partitions, and the
// functional (result-producing) radix partitioning both algorithms use.
// The two algorithms charge different modelled costs for producing this
// result — Gbase's dynamic bucket lists vs GSH's count-then-partition —
// and those cost kernels live with the respective algorithm packages.
package gpupart

import (
	"skewjoin/internal/chainedtable"
	"skewjoin/internal/gpusim"
	"skewjoin/internal/hashfn"
	"skewjoin/internal/radix"
	"skewjoin/internal/relation"
)

// Fanout picks the radix bits for two-pass GPU partitioning so that, on
// uniform data, every final partition fits into `capacity` tuples (the
// shared-memory budget) with headroom. It returns the per-pass bit counts;
// both are at least 1 so the two-pass structure is always exercised.
func Fanout(n, capacity int) (bits1, bits2 uint32) {
	if capacity < 1 {
		capacity = 1
	}
	// Headroom factor 2: uniform partitions land at half capacity so mild
	// variance does not spill.
	parts := hashfn.NextPow2((2*n + capacity - 1) / capacity)
	if parts < 4 {
		parts = 4
	}
	total := hashfn.Log2(parts)
	bits1 = (total + 1) / 2
	bits2 = total - bits1
	if bits2 == 0 {
		bits2 = 1
		if bits1 > 1 {
			bits1--
		}
	}
	return bits1, bits2
}

// Functional computes the partitioned relation that the GPU kernels
// produce: the same key-to-partition mapping as the modelled two-pass
// kernels, evaluated sequentially on the host. Cost accounting for the
// actual kernels is charged separately by the caller.
func Functional(tuples []relation.Tuple, bits1, bits2 uint32) *radix.Partitioned {
	return radix.Partition(tuples, radix.Config{Threads: 1, Bits1: bits1, Bits2: bits2}, nil)
}

// ProbeJoinBlock is the per-block join kernel shared by Gbase's join phase
// and GSH's NM-join (the paper: "we implement a normal join procedure
// (NM-Join) similar to Gbase"). The block builds a chained hash table over
// rPart in shared memory, probes it with every tuple of sPart, and emits
// matches through the write-bitmap output procedure the paper describes:
// per chain step, each thread sets an intention bit atomically, the block
// synchronises, threads compute offsets from the bitmap and write results
// coalesced. Returns the number of matches the block produced.
//
// The host computes the block's result with chainedtable's compact table.
// Its buckets hold exactly the entries of the modelled chains, so the
// per-probe visit counts that drive the warp and barrier costs are the
// chained table's.
func ProbeJoinBlock(b *gpusim.Block, rPart, sPart []relation.Tuple) int {
	dcfg := b.Device().Config()
	table := chainedtable.Build(rPart)

	// Build: read the R side coalesced; per tuple a hash, a shared-memory
	// write and a shared atomic on the bucket head.
	b.GlobalCoalesced(len(rPart) * relation.TupleSize)
	b.UniformWork(len(rPart), 4)
	b.Atomic(len(rPart))

	// Probe: read S coalesced, walk chains.
	b.GlobalCoalesced(len(sPart) * relation.TupleSize)
	visits := make([]int, len(sPart))
	matches := 0
	var curKey relation.Key
	var curPS relation.Payload
	emit := func(p relation.Payload) {
		b.Out.Push(curKey, p, curPS)
		matches++
	}
	for i, ts := range sPart {
		curKey, curPS = ts.Key, ts.Payload
		visits[i] = table.Probe(ts.Key, emit)
	}
	// Each chain step costs a shared access and a key compare, plus the
	// write-bitmap output procedure of §III: an atomic bit set, a popcount
	// over the bitmap and an offset computation — per tuple, per chain
	// step. Warps serialise on their longest lane.
	stepCost := dcfg.SharedAccessCost + dcfg.ComputeCost + dcfg.AtomicCost + 3*dcfg.ComputeCost
	b.WarpLoop(visits, stepCost)
	// The block synchronises after every chain step: the barrier count is
	// the longest chain within each batch of BlockDim S tuples.
	barriers := 0
	for lo := 0; lo < len(visits); lo += dcfg.ThreadsPerBlock {
		hi := lo + dcfg.ThreadsPerBlock
		if hi > len(visits) {
			hi = len(visits)
		}
		max := 0
		for _, v := range visits[lo:hi] {
			if v > max {
				max = v
			}
		}
		barriers += max
	}
	b.Barrier(barriers)
	// Post-bitmap offset computation and the coalesced result write.
	b.UniformWork(matches, 1)
	b.GlobalCoalesced(matches * 12)
	return matches
}
