// Package gbase implements the baseline GPU hash join of the paper: the
// hardware-conscious GPU radix join of Sioulas et al. (ICDE 2019), which
// the paper denotes Gbase (§II-B), running on the gpusim device model.
//
// Partition phase: the input tables are divided into shared-memory-sized
// partitions over two passes. Threads scan and copy tuples into the buckets
// of target partitions; full buckets are chained into linked lists. To keep
// global-memory writes coalesced, tuples are read in register batches and
// reordered through shared memory before being written out. Work is
// chunk-parallel over the input, so partitioning cost is skew-independent.
//
// Join phase: each (R partition, S partition) pair is handled by one thread
// block, which builds a chained hash table over the R partition in shared
// memory and probes it with the S partition. Output is coordinated with a
// write bitmap: for every step down a hash chain, each thread atomically
// sets its intention bit, the block synchronises, and threads compute their
// output offsets — so the synchronisation cost scales with chain length
// (§III).
//
// Skew handling: a long R partition (one that exceeds the shared-memory
// budget) is decomposed into disjoint sub-lists, and one thread block joins
// each sub-list against the *full* S partition. This re-probes every S
// tuple once per sub-list and does nothing about S-side skew — the two
// weaknesses the paper demonstrates.
package gbase

import (
	"time"

	"skewjoin/internal/exec"
	"skewjoin/internal/gpupart"
	"skewjoin/internal/gpusim"
	"skewjoin/internal/outbuf"
	"skewjoin/internal/relation"
)

// Config tunes Gbase.
type Config struct {
	// Device configures the simulated GPU (zero fields = A100).
	Device gpusim.Config
	// Threads is the number of host workers simulating the thread blocks
	// (default: all cores). Modelled times, stats and output are
	// identical for every value; it only changes wall-clock time.
	Threads int
	// BucketTuples is the linked-bucket granularity of the partition phase
	// (default 512): one bucket-allocation atomic per BucketTuples tuples.
	BucketTuples int
	// BatchTuples is the register-batch size for the shared-memory reorder
	// (paper example: 4).
	BatchTuples int
	// SubListTuples is the sub-list granularity used to decompose a
	// skewed R partition (Gbase's native skew knob). 0 means the
	// shared-memory capacity; values above it are clamped, since a
	// sub-list's hash table must fit in shared memory.
	SubListTuples int
	// IncludeTransfer adds a "transfer" phase modelling the PCIe copy of
	// both input tables to the device. The paper studies GPU-resident data
	// (§II-B) because this transfer can rival the join itself; enabling it
	// here quantifies that argument.
	IncludeTransfer bool
	// Flush optionally installs a per-SM batch consumer on the device's
	// output buffers (the volcano model's upper operator).
	Flush func(sm int) outbuf.FlushFunc
}

// Defaults fills zero fields.
func (c Config) Defaults() Config {
	c.Device = c.Device.Defaults()
	if c.Threads <= 0 {
		c.Threads = exec.DefaultThreads()
	}
	if c.BucketTuples <= 0 {
		c.BucketTuples = 512
	}
	if c.BatchTuples <= 0 {
		c.BatchTuples = 4
	}
	return c
}

// Stats reports the internals of a Gbase run.
type Stats struct {
	Bits1, Bits2  uint32
	Fanout        int
	MaxPartitionR int
	MaxPartitionS int
	JoinBlocks    int    // thread blocks in the join phase (incl. sub-lists)
	SubListBlocks int    // blocks beyond one-per-pair, i.e. skew decomposition
	SReprobes     uint64 // extra S-tuple probes caused by sub-lists
	Sim           gpusim.Stats
}

// Result is the outcome of one Gbase run. All durations are modelled GPU
// time from the simulator.
type Result struct {
	Summary outbuf.Summary
	Phases  []exec.Phase // "partition", "join"
	Stats   Stats
	// Trace lists every kernel launch with its block count, makespan and
	// imbalance — the simulator's per-launch records.
	Trace []gpusim.LaunchRecord
}

// Total returns the end-to-end modelled time of the run.
func (r Result) Total() time.Duration {
	var d time.Duration
	for _, p := range r.Phases {
		d += p.Duration
	}
	return d
}

// Join runs Gbase over r and s on a fresh simulated device.
func Join(r, s relation.Relation, cfg Config) Result {
	cfg = cfg.Defaults()
	dev := gpusim.NewDevice(cfg.Device)
	dev.SetWorkers(cfg.Threads)
	if cfg.Flush != nil {
		dev.SetFlush(cfg.Flush)
	}
	capacity := dev.PartitionCapacityTuples()
	n := r.Len()
	if s.Len() > n {
		n = s.Len()
	}
	bits1, bits2 := gpupart.Fanout(n, capacity)

	var res Result
	res.Stats.Bits1, res.Stats.Bits2 = bits1, bits2
	res.Stats.Fanout = 1 << (bits1 + bits2)

	var transferDur time.Duration
	if cfg.IncludeTransfer {
		transferDur = dev.Transfer("transfer", "gbase-h2d", r.Bytes()+s.Bytes())
	}

	// Partition phase (modelled cost + the bucket-list structure).
	dur := partitionTable(dev, cfg, r.Tuples, 1<<bits1)
	rLists := partitionBuckets(r.Tuples, bits1, bits2, cfg.BucketTuples)
	durS := partitionTable(dev, cfg, s.Tuples, 1<<bits1)
	sLists := partitionBuckets(s.Tuples, bits1, bits2, cfg.BucketTuples)
	res.Stats.MaxPartitionR = maxListTotal(rLists)
	res.Stats.MaxPartitionS = maxListTotal(sLists)

	// Join phase.
	joinDur := joinPhase(dev, cfg, rLists, sLists, capacity, &res.Stats)

	dev.FlushOutputs()
	res.Summary = dev.OutputSummary()
	res.Stats.Sim = dev.Stats()
	res.Trace = dev.Records()
	if cfg.IncludeTransfer {
		res.Phases = append(res.Phases, exec.Phase{Name: "transfer", Duration: transferDur})
	}
	res.Phases = append(res.Phases,
		exec.Phase{Name: "partition", Duration: dur + durS},
		exec.Phase{Name: "join", Duration: joinDur},
	)
	return res
}

// partitionTable charges the modelled cost of Gbase's two partition passes
// over one table. Pass 1 and pass 2 are both chunk-parallel: the paper's
// Gbase lets all threads scan and copy to linked bucket lists, so the work
// per block depends only on the chunk size, never on skew.
func partitionTable(dev *gpusim.Device, cfg Config, tuples []relation.Tuple, fanout1 int) time.Duration {
	var total time.Duration
	for pass := 0; pass < 2; pass++ {
		total += partitionPass(dev, cfg, len(tuples), fanout1)
	}
	return total
}

// partitionPass models one scan-and-scatter pass over n tuples.
func partitionPass(dev *gpusim.Device, cfg Config, n, fanout int) time.Duration {
	dcfg := dev.Config()
	blocks := 4 * dcfg.NumSMs
	chunk := (n + blocks - 1) / blocks
	if chunk == 0 {
		chunk = 1
		blocks = n
	}
	if blocks == 0 {
		blocks = 1
	}
	return dev.Launch("partition", "gbase-partition-pass", blocks, func(b *gpusim.Block) {
		lo := b.Idx * chunk
		if lo >= n {
			return
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		c := hi - lo
		// Read the chunk coalesced (in register batches of BatchTuples).
		b.GlobalCoalesced(c * relation.TupleSize)
		// Every tuple is staged through shared memory for the reorder: one
		// write and one read, plus the batch bookkeeping.
		b.Shared(2*c + c/cfg.BatchTuples)
		// Hash + target computation.
		b.UniformWork(c, 2)
		// Bucket allocations: one atomic per filled bucket per partition
		// touched, plus the per-tuple position atomics within buckets.
		b.Atomic(c/cfg.BucketTuples + fanout)
		// Write the reordered tuples coalesced.
		b.GlobalCoalesced(c * relation.TupleSize)
	})
}

type joinTask struct {
	rl     *bucketList
	lo, hi int // bucket range of the R sub-list
	sl     *bucketList
	sub    bool // true when this block is a sub-list of a decomposed partition
}

// joinPhase runs one thread block per (R sub-list, S partition) pair. An R
// partition whose bucket list holds more tuples than fit in shared memory
// is decomposed into disjoint runs of consecutive buckets — the paper's
// sub-list technique — each joined against the full S list.
func joinPhase(dev *gpusim.Device, cfg Config, rLists, sLists []*bucketList, capacity int, st *Stats) time.Duration {
	subSize := cfg.SubListTuples
	if subSize <= 0 || subSize > capacity {
		subSize = capacity
	}
	bucketsPerSub := subSize / cfg.BucketTuples
	if bucketsPerSub < 1 {
		bucketsPerSub = 1
	}
	var tasks []joinTask
	for p := range rLists {
		rl, sl := rLists[p], sLists[p]
		if rl.total == 0 || sl.total == 0 {
			continue
		}
		if rl.total <= capacity {
			tasks = append(tasks, joinTask{rl: rl, lo: 0, hi: len(rl.buckets), sl: sl})
			continue
		}
		for lo := 0; lo < len(rl.buckets); lo += bucketsPerSub {
			hi := lo + bucketsPerSub
			if hi > len(rl.buckets) {
				hi = len(rl.buckets)
			}
			tasks = append(tasks, joinTask{rl: rl, lo: lo, hi: hi, sl: sl, sub: true})
		}
	}
	st.JoinBlocks = len(tasks)
	for _, t := range tasks {
		if t.sub {
			st.SubListBlocks++
			st.SReprobes += uint64(t.sl.total)
		}
	}
	if len(tasks) == 0 {
		return 0
	}

	return dev.Launch("join", "gbase-join", len(tasks), func(b *gpusim.Block) {
		t := tasks[b.Idx]
		// The block walks its R sub-list's buckets into shared memory and
		// probes with every tuple of the full S bucket list.
		rSub := t.rl.gather(nil, t.lo, t.hi)
		sPart := t.sl.gather(nil, 0, len(t.sl.buckets))
		gpupart.ProbeJoinBlock(b, rSub, sPart)
	})
}
