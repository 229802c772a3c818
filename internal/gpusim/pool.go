// Host-parallel block execution: the worker-pool path of Launch.
//
// The simulated makespan of a launch is already order-independent — it is
// a function of the per-block cycle vector, which schedule() folds over a
// deterministic earliest-free-SM heap. What is NOT order-independent is
// the functional side: blocks write interleaved into per-SM output rings,
// and stats fold into the device as they go. With a flush consumer
// installed the interleaving is observable, so such launches always run
// serially. Without one, only each ring's count and linear checksum
// survive, so the pool stages per block just its cycles, its Stats and an
// outbuf.Tally, and merges them in block-index order once all blocks have
// run. Any worker interleaving therefore produces identical records,
// stats and output summary.
//
// Workers claim chunks of consecutive block indices from the lock-free
// fetch-add queue of internal/exec (the same dynamic-task-queue substrate
// the CPU joins drain), so a launch whose block costs are wildly skewed —
// the very workloads this repository studies — still balances across host
// cores without any per-block locking.
package gpusim

import (
	"skewjoin/internal/exec"
	"skewjoin/internal/outbuf"
)

// hostWorkers resolves the worker-pool size for a launch of `blocks`
// blocks on `workers` host goroutines: 0 means the serial path (one
// worker, or a launch too small to share), and the pool never exceeds the
// block count (extra workers would only spin on an empty queue).
func hostWorkers(workers, blocks int) int {
	if workers > blocks {
		workers = blocks
	}
	if workers <= 1 {
		return 0
	}
	return workers
}

// blockStage is one block's privately staged execution result.
type blockStage struct {
	cycles float64
	stats  Stats
	out    outbuf.Tally
}

// launchChunk is how many consecutive blocks one queue claim hands a
// worker: large enough that the fetch-add cursor is not contended for
// million-block skew-join launches, small enough that a handful of giant
// blocks (a skewed partition's sub-lists) still spread over the pool.
func launchChunk(blocks, workers int) int {
	chunk := blocks / (workers * 32)
	if chunk < 1 {
		return 1
	}
	if chunk > 256 {
		return 256
	}
	return chunk
}

// runBlocksParallel executes the launch's blocks on a pool of `workers`
// goroutines and merges the staged per-block results in block-index
// order, reproducing runBlocksSerial's cycles[], stats and per-SM output
// summaries exactly. Only valid when no SM buffer has a flush consumer.
func (d *Device) runBlocksParallel(workers, blocks int, kernel func(b *Block), cycles []float64) (sum, maxb float64) {
	stages := make([]blockStage, blocks)
	chunk := launchChunk(blocks, workers)
	starts := make([]int, 0, (blocks+chunk-1)/chunk)
	for lo := 0; lo < blocks; lo += chunk {
		starts = append(starts, lo)
	}
	exec.NewQueue(starts).Drain(workers, func(_, lo int) {
		hi := lo + chunk
		if hi > blocks {
			hi = blocks
		}
		b := &Block{dev: d}
		for i := lo; i < hi; i++ {
			st := &stages[i]
			b.Idx = i
			b.Out = &st.out
			b.cycles = 0
			b.stats = Stats{}
			kernel(b)
			st.cycles = b.cycles
			st.stats = b.stats
		}
	})

	// Deterministic merge: block-index order, same as serial execution.
	for i := range stages {
		st := &stages[i]
		cycles[i] = st.cycles
		sum += st.cycles
		if st.cycles > maxb {
			maxb = st.cycles
		}
		d.stats.add(st.stats)
		st.out.AddTo(d.bufs[i%d.cfg.NumSMs])
	}
	return sum, maxb
}
