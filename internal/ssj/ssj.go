// Package ssj implements the streaming symmetric hash join — the repo's
// first non-blocking operator. Every existing join is build-then-probe:
// nothing is emitted until the build side is complete, so a consumer that
// only wants the first N results (a dashboard top-k, a LIMIT query) still
// pays the full makespan. The symmetric join keeps one growable hash
// table per input and pipelines both: tuples arrive in chunks off exec's
// fetch-add queue, and each tuple first probes the opposite side's table
// (emitting every match found so far) and then inserts into its own. A
// result pair is emitted exactly once — by whichever of its two tuples is
// processed later — so the complete run's output digest is identical to
// the blocking operators', while the first results exist after the first
// chunk instead of after the last.
//
// Skew shows up differently here than in the blocking joins: a popular
// key would flood both symmetric tables mid-stream, so its chains grow
// while probes are already traversing them (hence the hot-key path
// below), and the per-key output explodes early (the hot key's matches
// are quadratic in how much of each input has arrived). That early
// explosion is precisely what makes the operator strong under LIMIT: on
// skewed data the first chunks alone satisfy small limits.
//
// Tuple space is split across lane shards (max(8, NextPow2(4×Threads))),
// each a mutex plus an R-table and an S-table. A worker routes its chunk
// by the low bits of the key hash (the tables bucket by the high bits, so
// lane routing does not collapse their chains), then processes each
// lane's group under that lane's lock. Lane serialization is what makes
// probe-then-insert exactly-once without any global ordering. The tables
// start at the minimum size and double as the stream fills them.
//
// Hot keys take CSH's skew path instead (§IV-A). Before streaming, a 1%
// stride sample of R finds the keys sampled at least twice
// (freqtable.DetectSkew, the same rule and defaults as CSH); each gets a
// hotSlot of two append-only payload arrays. A chunk's hot tuples are
// grouped per key, and under the slot lock a worker appends its group to
// its own side's array and snapshots the opposite one; it then emits the
// group against the snapshot outside the lock, with sequential reads and
// no per-result key comparison (outbuf.PushRun/PushRunS). Exactly-once
// follows from the slot's lock order as it does for lanes: of any (r, s)
// pair, the tuple appended second finds the other in its snapshot, and
// the one appended first does not. Because only the append is locked,
// every worker emits hot output in parallel instead of queueing on the
// hot key's lane.
//
// Early termination is built in: when Config.Limit results have been
// staged, the run cancels its own drain and returns the partial summary
// as a successful limit-hit result (Stats.LimitHit), distinct from a
// caller cancellation (Result.Canceled). Time-to-first-result and
// time-to-limit are measured on the worker that crosses each threshold.
package ssj

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"skewjoin/internal/chainedtable"
	"skewjoin/internal/exec"
	"skewjoin/internal/freqtable"
	"skewjoin/internal/hashfn"
	"skewjoin/internal/outbuf"
	"skewjoin/internal/relation"
)

// Config tunes the streaming symmetric join.
type Config struct {
	// Threads is the number of worker threads.
	Threads int
	// ChunkSize is the number of tuples per input chunk — the unit of
	// streaming arrival and of cancellation latency (default 4096). A
	// cancelled run stops within one chunk per worker.
	ChunkSize int
	// Limit stops the run once at least this many results have been
	// staged (0 = run to completion). The crossing is detected after
	// every lane batch and every hot-key run, so each worker stages at
	// most one lane batch (bounded by a chunk's matches) or one hot run
	// (bounded by the longest hot-key array) beyond the limit.
	Limit uint64
	// OutBufCap is the per-thread output ring capacity (0 = default).
	OutBufCap int
	// Flush optionally installs a per-worker batch consumer on the output
	// buffers (the volcano model's upper operator).
	Flush func(worker int) outbuf.FlushFunc
	// Ctx optionally cancels the run (nil = never). Cancellation is
	// observed between chunks, lane batches and hot-key runs; a cancelled
	// run returns with Result.Canceled set and its partial output must be
	// discarded.
	Ctx context.Context
}

// DefaultChunkSize is the streaming chunk size used when Config.ChunkSize
// is zero. It matches outbuf.DefaultCapacity so one hot chunk cannot wrap
// a default ring more than a handful of times between flushes.
const DefaultChunkSize = 4096

// Defaults fills zero fields.
func (c Config) Defaults() Config {
	if c.Threads <= 0 {
		c.Threads = exec.DefaultThreads()
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = DefaultChunkSize
	}
	return c
}

// laneCount is the number of lane shards for a run on threads workers:
// enough that two workers rarely contend on one lane lock.
func laneCount(threads int) int {
	if n := hashfn.NextPow2(4 * threads); n > 8 {
		return n
	}
	return 8
}

// Stats reports internals of a streaming run, including the two
// latency milestones that motivate the operator.
type Stats struct {
	// Chunks is the number of input chunks processed (both sides).
	Chunks int
	// ProbeVisits is the total chain nodes visited during lane probes
	// plus every opposite-array entry a hot-key run emitted against.
	ProbeVisits uint64
	// MaxChain is the longest hash chain across both tables of every
	// lane, or the longest hot-key array if that is longer, at the end
	// of the run — the skew symptom, whichever path carried the key.
	MaxChain int
	// HotKeys is the number of keys the R sample marked hot.
	HotKeys int
	// HotTuples is the number of tuples (both sides) that took the
	// hot-key path instead of a lane.
	HotTuples int
	// Staged is the number of results staged into output rings. It can
	// exceed Limit by up to one lane batch or hot run per worker (bounded
	// overshoot, see Config.Limit) and equals Summary.Count.
	Staged uint64
	// FirstResultNs is the time from run start to the first staged
	// result batch, in nanoseconds (0 when the join is empty).
	FirstResultNs int64
	// LimitNs is the time from run start until Staged crossed
	// Config.Limit (0 when no limit was set or it was never reached).
	LimitNs int64
	// LimitHit reports that Config.Limit was reached; the Summary is a
	// valid partial prefix digest, not the full join.
	LimitHit bool
}

// Result is the outcome of one streaming symmetric join run.
type Result struct {
	Summary outbuf.Summary
	Phases  []exec.Phase // "stream"
	Stats   Stats
	// Canceled reports that Config.Ctx fired before the run completed or
	// hit its limit; the partial Summary and Stats must be discarded.
	Canceled bool
}

// Total returns the end-to-end time of the run.
func (r Result) Total() time.Duration {
	var d time.Duration
	for _, p := range r.Phases {
		d += p.Duration
	}
	return d
}

// task is one chunk of one input: side 0 streams R tuples, side 1
// streams S tuples. Chunks of the two sides are interleaved in the queue
// so both tables grow together — the symmetric shape that keeps
// per-chunk probe work balanced.
type task struct {
	side   int32
	lo, hi int32
}

// lane is one shard of the symmetric state: the R and S tables for the
// keys routed to it, serialized by its mutex. Probe-then-insert under
// the lane lock is the exactly-once argument: for any (r, s) match pair,
// whichever tuple the lane processes second finds the other already
// inserted — and only that one emits the pair.
type lane struct {
	mu sync.Mutex
	r  *chainedtable.Incremental //skewlint:guarded-by mu
	s  *chainedtable.Incremental //skewlint:guarded-by mu
}

// hotSlot holds one hot key's payloads of both inputs in arrival order:
// CSH's skewed R partition, with its S counterpart, built as the stream
// arrives. The arrays are append-only, so a snapshot taken under mu stays
// valid after the lock is released: later appends write past its length
// or into a new backing array, never over its entries.
type hotSlot struct {
	key relation.Key
	mu  sync.Mutex
	r   []relation.Payload //skewlint:guarded-by mu
	s   []relation.Payload //skewlint:guarded-by mu
}

// worker is one thread's private streaming state.
type worker struct {
	buf       *outbuf.Buffer
	scratch   [][]relation.Tuple   // per-lane chunk routing groups
	hot       [][]relation.Payload // per-hot-key chunk groups
	touched   []int32              // hot ids with a group in this chunk
	visits    uint64
	chunks    int
	hotTuples int
	// staged is buf.Count() as of the last publish; the delta feeds the
	// shared progress counter.
	staged uint64
}

// state is the symmetric state the workers share.
type state struct {
	lanes    []lane
	laneMask uint32
	checkup  *freqtable.CheckupTable
	slots    []hotSlot // indexed by checkup id
}

// progress is the run-wide output accounting shared by all workers: the
// staged-result counter and the two latency milestones, plus the cancel
// hook fired when the limit is crossed.
type progress struct {
	staged  atomic.Uint64
	firstNs atomic.Int64
	limitNs atomic.Int64
	limit   uint64
	start   time.Time
	cancel  context.CancelFunc
}

// observe folds one worker's newly staged results into the shared
// counter, records the first-result and limit milestones on the worker
// that crosses them, and cancels the drain once the limit is reached.
func (p *progress) observe(delta uint64) {
	if delta == 0 {
		return
	}
	total := p.staged.Add(delta)
	if total == delta {
		// This worker staged the run's first results.
		p.firstNs.CompareAndSwap(0, sinceNs(p.start))
	}
	if p.limit > 0 && total >= p.limit {
		if p.limitNs.CompareAndSwap(0, sinceNs(p.start)) {
			p.cancel()
		}
	}
}

// sinceNs returns the nanoseconds elapsed since start, at least 1 so a
// recorded milestone is distinguishable from the zero "never happened".
func sinceNs(start time.Time) int64 {
	ns := int64(time.Since(start))
	if ns < 1 {
		ns = 1
	}
	return ns
}

// Join runs the streaming symmetric hash join over r and s.
func Join(r, s relation.Relation, cfg Config) Result {
	cfg = cfg.Defaults()
	var res Result
	if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
		res.Canceled = true
		return res
	}

	tasks := interleave(r.Len(), s.Len(), cfg.ChunkSize)
	queue := exec.NewQueue(tasks)

	// Buffers are created (and consumers installed) before the parallel
	// section: Flush factories need not be safe for concurrent calls.
	workers := make([]*worker, cfg.Threads)
	for w := range workers {
		wk := &worker{buf: outbuf.New(cfg.OutBufCap)}
		if cfg.Flush != nil {
			wk.buf.SetFlush(cfg.Flush(w))
		}
		workers[w] = wk
	}

	parent := cfg.Ctx
	if parent == nil {
		parent = context.Background()
	}
	joinCtx, cancel := context.WithCancel(parent)
	defer cancel()

	prog := &progress{limit: cfg.Limit, cancel: cancel}

	var st state
	var timer exec.PhaseTimer
	timer.Time("stream", func() {
		prog.start = time.Now()
		st = newState(r, cfg.Threads)
		for _, wk := range workers {
			wk.scratch = make([][]relation.Tuple, len(st.lanes))
			wk.hot = make([][]relation.Payload, len(st.slots))
		}
		// The drain error is the join ctx firing — either the limit hook
		// or the caller's ctx. Both are classified below from prog and
		// cfg.Ctx, so the error value itself carries no extra signal.
		//skewlint:ignore err-drop -- the drain error only says "ctx fired"; whether that was the limit (success) or the caller (Canceled) is decided from prog and cfg.Ctx below
		_ = drainChunks(joinCtx, queue, cfg.Threads, func(w int, t task) {
			wk := workers[w]
			tuples := r.Tuples
			if t.side == 1 {
				tuples = s.Tuples
			}
			wk.stream(joinCtx.Done(), &st, t.side, tuples[t.lo:t.hi], prog)
		})
		// Final partial batches: on a completed or limit-hit run these
		// carry the tail results to the consumer. The deltas they stage
		// are already counted (observe runs on Push, not Flush).
		for _, wk := range workers {
			wk.buf.Flush()
		}
	})

	limitHit := cfg.Limit > 0 && prog.staged.Load() >= cfg.Limit
	res.Canceled = cfg.Ctx != nil && cfg.Ctx.Err() != nil && !limitHit

	bufs := make([]*outbuf.Buffer, len(workers))
	for w, wk := range workers {
		bufs[w] = wk.buf
		res.Stats.Chunks += wk.chunks
		res.Stats.ProbeVisits += wk.visits
		res.Stats.HotTuples += wk.hotTuples
	}
	res.Stats.HotKeys = len(st.slots)
	res.Stats.MaxChain = st.maxChain()
	res.Stats.Staged = prog.staged.Load()
	res.Stats.FirstResultNs = prog.firstNs.Load()
	res.Stats.LimitNs = prog.limitNs.Load()
	res.Stats.LimitHit = limitHit
	res.Summary = outbuf.Summarize(bufs)
	res.Phases = timer.Phases()
	return res
}

// newState detects r's hot keys and allocates the lanes and hot slots.
// Lane tables start at the minimum size: a limited run stops reading its
// inputs after a few chunks, so tables sized for the whole input would be
// mostly allocation and initialisation nobody uses.
func newState(r relation.Relation, threads int) state {
	keys, _ := freqtable.DetectSkew(r, freqtable.DefaultSampleRate, freqtable.DefaultSkewThreshold)
	st := state{
		lanes:   make([]lane, laneCount(threads)),
		checkup: freqtable.NewCheckupTable(keys),
		slots:   make([]hotSlot, len(keys)),
	}
	st.laneMask = uint32(len(st.lanes) - 1)
	for i, k := range keys {
		st.slots[i].key = k
	}
	// Locked for the lock-discipline invariant even though no worker is
	// running yet.
	for i := range st.lanes {
		ln := &st.lanes[i]
		ln.mu.Lock()
		ln.r = chainedtable.NewIncremental(0)
		ln.s = chainedtable.NewIncremental(0)
		ln.mu.Unlock()
	}
	return st
}

// maxChain returns the longest lane chain or hot-key array.
func (st *state) maxChain() int {
	longest := 0
	for i := range st.lanes {
		ln := &st.lanes[i]
		ln.mu.Lock()
		longest = max(longest, ln.r.MaxChain(), ln.s.MaxChain())
		ln.mu.Unlock()
	}
	for i := range st.slots {
		sl := &st.slots[i]
		sl.mu.Lock()
		longest = max(longest, len(sl.r), len(sl.s))
		sl.mu.Unlock()
	}
	return longest
}

// interleave cuts both inputs into ChunkSize tasks and alternates them
// R, S, R, S, … so the two tables fill at matching rates regardless of
// which side is larger (the longer side's tail runs unpaired).
func interleave(nr, ns, chunk int) []task {
	tasks := make([]task, 0, (nr+ns)/chunk+2)
	var lr, ls int
	for lr < nr || ls < ns {
		if lr < nr {
			hi := min(lr+chunk, nr)
			tasks = append(tasks, task{side: 0, lo: int32(lr), hi: int32(hi)})
			lr = hi
		}
		if ls < ns {
			hi := min(ls+chunk, ns)
			tasks = append(tasks, task{side: 1, lo: int32(ls), hi: int32(hi)})
			ls = hi
		}
	}
	return tasks
}

// stream processes one chunk: divert its hot-key tuples into per-key
// groups and route the rest to lanes, then emit the hot groups (see
// streamHot) and, for each non-empty lane — under the lane lock — probe
// the opposite table and insert into the own-side table, tuple by tuple.
// Cancellation is polled after every hot run and between lanes.
func (wk *worker) stream(done <-chan struct{}, st *state, side int32, chunk []relation.Tuple, prog *progress) {
	wk.chunks++
	// Route by the LOW hash bits: the Incremental tables bucket by the
	// high bits, so lane membership and bucket index stay independent
	// (high-bit routing would funnel each lane's keys into one bucket).
	scratch := wk.scratch
	for i := range scratch {
		scratch[i] = scratch[i][:0]
	}
	for _, id := range wk.touched {
		wk.hot[id] = wk.hot[id][:0]
	}
	wk.touched = wk.touched[:0]
	for _, tp := range chunk {
		if id := st.checkup.Lookup(tp.Key); id >= 0 {
			if len(wk.hot[id]) == 0 {
				wk.touched = append(wk.touched, id)
			}
			wk.hot[id] = append(wk.hot[id], tp.Payload)
			continue
		}
		l := hashfn.Mix32(uint32(tp.Key)) & st.laneMask
		scratch[l] = append(scratch[l], tp)
	}
	if !wk.streamHot(done, st, side, prog) {
		return
	}

	buf := wk.buf
	var curP relation.Payload
	// Two emit orientations: a probing R tuple supplies PayloadR and the
	// probed S match supplies PayloadS, and vice versa.
	var curKey relation.Key
	emitR := func(ps relation.Payload) { buf.Push(curKey, curP, ps) } // side 0: probing S table
	emitS := func(pr relation.Payload) { buf.Push(curKey, pr, curP) } // side 1: probing R table

	for l := range scratch {
		group := scratch[l]
		if len(group) == 0 {
			continue
		}
		select {
		case <-done:
			return
		default:
		}
		ln := &st.lanes[l]
		ln.mu.Lock()
		if side == 0 {
			for _, tp := range group {
				curKey, curP = tp.Key, tp.Payload
				wk.visits += uint64(ln.s.Probe(tp.Key, emitR))
				ln.r.Insert(tp)
			}
		} else {
			for _, tp := range group {
				curKey, curP = tp.Key, tp.Payload
				wk.visits += uint64(ln.r.Probe(tp.Key, emitS))
				ln.s.Insert(tp)
			}
		}
		ln.mu.Unlock()
		wk.publish(prog)
	}
}

// streamHot emits the chunk's hot-key groups. Per key, it appends the
// group to its side's slot array and snapshots the opposite array under
// the slot lock, then emits one run per group tuple against the snapshot
// with the lock released. It reports false when done fired.
func (wk *worker) streamHot(done <-chan struct{}, st *state, side int32, prog *progress) bool {
	buf := wk.buf
	for _, id := range wk.touched {
		group := wk.hot[id]
		wk.hotTuples += len(group)
		sl := &st.slots[id]
		sl.mu.Lock()
		var opp []relation.Payload
		if side == 0 {
			opp = sl.s
			sl.r = append(sl.r, group...)
		} else {
			opp = sl.r
			sl.s = append(sl.s, group...)
		}
		sl.mu.Unlock()
		if len(opp) == 0 {
			continue
		}
		for _, p := range group {
			if side == 0 {
				buf.PushRunS(sl.key, p, opp)
			} else {
				buf.PushRun(sl.key, opp, p)
			}
			wk.visits += uint64(len(opp))
			wk.publish(prog)
			select {
			case <-done:
				return false
			default:
			}
		}
	}
	return true
}

// publish folds the results staged since the last call into the shared
// progress counter.
func (wk *worker) publish(prog *progress) {
	if c := wk.buf.Count(); c != wk.staged {
		prog.observe(c - wk.staged)
		wk.staged = c
	}
}

// drainChunks is the streaming operator's worker fan-out: it drains the
// chunk queue on `threads` workers with between-task cancellation. It
// exists as a named spawn point so skewlint's ctx-propagation analyzer
// covers every caller (see internal/lint.DefaultConfig).
func drainChunks(ctx context.Context, q *exec.Queue[task], threads int, fn func(worker int, t task)) error {
	return q.DrainCtx(ctx, threads, fn)
}
