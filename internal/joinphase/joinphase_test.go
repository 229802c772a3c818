package joinphase

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"skewjoin/internal/oracle"
	"skewjoin/internal/outbuf"
	"skewjoin/internal/radix"
	"skewjoin/internal/zipf"
)

func run(t *testing.T, n int, theta float64, threads int, skewFactor float64, rcfg radix.Config) (outbuf.Summary, Stats, outbuf.Summary) {
	t.Helper()
	g, err := zipf.New(zipf.Config{Theta: theta, Universe: n, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	r, s := g.Pair(n)
	want := oracle.Expected(r, s)
	pr := radix.Partition(r.Tuples, rcfg, nil)
	ps := radix.Partition(s.Tuples, rcfg, nil)
	bufs := make([]*outbuf.Buffer, threads)
	for i := range bufs {
		bufs[i] = outbuf.New(0)
	}
	st := Run(pr, ps, Config{Threads: threads, SkewFactor: skewFactor}, bufs)
	return outbuf.Summarize(bufs), st, want
}

func TestRunMatchesOracle(t *testing.T) {
	for _, theta := range []float64{0, 0.6, 1.0} {
		got, _, want := run(t, 20000, theta, 4, 4, radix.Config{Threads: 4, Bits1: 5, Bits2: 3})
		if got != want {
			t.Errorf("theta=%g: got %+v, want %+v", theta, got, want)
		}
	}
}

func TestSkewedPartitionTriggersSplits(t *testing.T) {
	// At zipf 1.0 with fanout 32, the partition holding the top key dwarfs
	// the average, so its join task must be broken up; correctness must
	// hold regardless.
	got, st, want := run(t, 20000, 1.0, 3, 2, radix.Config{Threads: 3, Bits1: 5, Bits2: 0})
	if got != want {
		t.Errorf("got %+v, want %+v", got, want)
	}
	if st.SplitTasks == 0 {
		t.Error("skewed run should have split tasks")
	}
	if st.Tasks <= st.SplitTasks {
		t.Errorf("tasks %d should exceed splits %d (sub-tasks enqueued)", st.Tasks, st.SplitTasks)
	}
}

func TestSplitTasksPreserveResults(t *testing.T) {
	// With and without splitting must agree bit-for-bit.
	a, _, want := run(t, 15000, 0.95, 4, 2, radix.Config{Threads: 4, Bits1: 4, Bits2: 2})
	b, stb, _ := run(t, 15000, 0.95, 4, -1, radix.Config{Threads: 4, Bits1: 4, Bits2: 2})
	if a != b || a != want {
		t.Errorf("split %+v vs unsplit %+v vs want %+v", a, b, want)
	}
	if stb.SplitTasks != 0 {
		t.Errorf("splitting disabled but %d splits", stb.SplitTasks)
	}
}

func TestEmptyPartitionsSkipped(t *testing.T) {
	// Tiny input with large fanout: most partitions are empty; no tasks
	// for them.
	_, st, _ := run(t, 64, 0, 2, 4, radix.Config{Threads: 2, Bits1: 6, Bits2: 4})
	if st.Tasks > 64 {
		t.Errorf("%d tasks for 64 tuples", st.Tasks)
	}
}

func TestMaxTaskOutputTracksSkew(t *testing.T) {
	_, uniform, _ := run(t, 30000, 0, 2, 4, radix.Config{Threads: 2, Bits1: 5, Bits2: 3})
	_, skewed, _ := run(t, 30000, 1.0, 2, 4, radix.Config{Threads: 2, Bits1: 5, Bits2: 3})
	if skewed.MaxTaskOutput <= 4*uniform.MaxTaskOutput {
		t.Errorf("skewed MaxTaskOutput %d should dwarf uniform %d",
			skewed.MaxTaskOutput, uniform.MaxTaskOutput)
	}
	if skewed.MaxChain <= uniform.MaxChain {
		t.Errorf("skewed MaxChain %d should exceed uniform %d", skewed.MaxChain, uniform.MaxChain)
	}
}

// collectRun executes the join phase with full output collection: every
// worker's ring is drained through a Flush collector, so the returned slice
// holds every emitted result (not just the overwriting ring tail).
func collectRun(t *testing.T, pr, ps *radix.Partitioned, cfg Config) ([]outbuf.Result, outbuf.Summary, Stats) {
	t.Helper()
	if cfg.Threads <= 0 {
		cfg.Threads = 4
	}
	bufs := make([]*outbuf.Buffer, cfg.Threads)
	collected := make([][]outbuf.Result, cfg.Threads)
	for i := range bufs {
		bufs[i] = outbuf.New(0)
		w := i
		bufs[i].SetFlush(func(batch []outbuf.Result) {
			collected[w] = append(collected[w], batch...)
		})
	}
	st := Run(pr, ps, cfg, bufs)
	var all []outbuf.Result
	for i, b := range bufs {
		b.Flush()
		all = append(all, collected[i]...)
	}
	return all, outbuf.Summarize(bufs), st
}

func sortResults(rs []outbuf.Result) {
	sort.Slice(rs, func(a, b int) bool {
		if rs[a].Key != rs[b].Key {
			return rs[a].Key < rs[b].Key
		}
		if rs[a].PayloadR != rs[b].PayloadR {
			return rs[a].PayloadR < rs[b].PayloadR
		}
		return rs[a].PayloadS < rs[b].PayloadS
	})
}

// TestJoinVariantsByteIdentical pins output determinism across the
// phase's scheduling variants: over skewed and uniform inputs, with and
// without task splitting, every thread count must produce byte-identical
// sorted output (not merely a matching checksum) equal to the oracle's
// summary. Split sub-tasks probe a table shared across workers, so this
// also covers the table hand-off.
func TestJoinVariantsByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name       string
		theta      float64
		skewFactor float64
	}{
		{"uniform", 0, 4},
		{"skewed", 1.0, 4},
		{"skewed-nosplit", 1.0, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 10000
			g := zipf.MustNew(zipf.Config{Theta: tc.theta, Universe: n, Seed: 42})
			r, s := g.Pair(n)
			want := oracle.Expected(r, s)
			rcfg := radix.Config{Threads: 4, Bits1: 5, Bits2: 2}
			pr := radix.Partition(r.Tuples, rcfg, nil)
			ps := radix.Partition(s.Tuples, rcfg, nil)

			var first []outbuf.Result
			for _, threads := range []int{1, 2, 4} {
				got, gotSum, st := collectRun(t, pr, ps, Config{Threads: threads, SkewFactor: tc.skewFactor})
				if gotSum != want {
					t.Errorf("threads=%d: summary %+v, oracle %+v", threads, gotSum, want)
				}
				if st.ProbeVisits == 0 {
					t.Errorf("threads=%d: zero probe visits", threads)
				}
				sortResults(got)
				if first == nil {
					first = got
					continue
				}
				if len(got) != len(first) {
					t.Fatalf("threads=%d: %d results, threads=1 %d", threads, len(got), len(first))
				}
				for i := range got {
					if got[i] != first[i] {
						t.Fatalf("threads=%d: result %d = %+v, threads=1 %+v", threads, i, got[i], first[i])
					}
				}
			}
		})
	}
}

// TestStatsTimingSplit checks the BuildNs/ProbeNs split: both sides are
// populated, bounded by the phase's wall-clock budget across workers, and
// monotone in input size.
func TestStatsTimingSplit(t *testing.T) {
	runSized := func(n int) Stats {
		g := zipf.MustNew(zipf.Config{Theta: 0.8, Universe: n, Seed: 7})
		r, s := g.Pair(n)
		rcfg := radix.Config{Threads: 2, Bits1: 4, Bits2: 2}
		pr := radix.Partition(r.Tuples, rcfg, nil)
		ps := radix.Partition(s.Tuples, rcfg, nil)
		bufs := []*outbuf.Buffer{outbuf.New(0), outbuf.New(0)}
		start := time.Now()
		st := Run(pr, ps, Config{Threads: 2, SkewFactor: 4}, bufs)
		wall := time.Since(start).Nanoseconds()
		if st.BuildNs <= 0 || st.ProbeNs <= 0 {
			t.Fatalf("n=%d: BuildNs=%d ProbeNs=%d, want both positive", n, st.BuildNs, st.ProbeNs)
		}
		// Per-worker CPU time cannot exceed the phase wall clock, so the
		// sums are bounded by threads × wall (with slack for timer grain).
		if budget := 2*wall + int64(time.Millisecond); st.BuildNs+st.ProbeNs > budget {
			t.Errorf("n=%d: BuildNs+ProbeNs = %d exceeds %d (2×wall+grain)", n, st.BuildNs+st.ProbeNs, budget)
		}
		return st
	}
	small := runSized(2000)
	large := runSized(64000)
	if large.BuildNs <= small.BuildNs {
		t.Errorf("BuildNs not monotone in input size: %d (64k tuples) <= %d (2k tuples)", large.BuildNs, small.BuildNs)
	}
	if large.ProbeNs <= small.ProbeNs {
		t.Errorf("ProbeNs not monotone in input size: %d (64k tuples) <= %d (2k tuples)", large.ProbeNs, small.ProbeNs)
	}
}

// TestSplitTablesSurviveArenaReuse pins the table hand-off end to end: at
// high skew with splitting enabled, tables shared by probe sub-tasks must
// keep answering correctly while their origin worker builds over later
// tasks. A miss here corrupts results only under load, which is why the
// byte-identical test above also covers the split path.
func TestSplitTablesSurviveArenaReuse(t *testing.T) {
	const n = 30000
	g := zipf.MustNew(zipf.Config{Theta: 1.0, Universe: n, Seed: 9})
	r, s := g.Pair(n)
	want := oracle.Expected(r, s)
	// Single thread forces the owner to build later tasks before the
	// sub-tasks it enqueued are drained — the worst case for scratch reuse.
	rcfg := radix.Config{Threads: 1, Bits1: 5, Bits2: 0}
	pr := radix.Partition(r.Tuples, rcfg, nil)
	ps := radix.Partition(s.Tuples, rcfg, nil)
	bufs := []*outbuf.Buffer{outbuf.New(0)}
	st := Run(pr, ps, Config{Threads: 1, SkewFactor: 2}, bufs)
	if st.SplitTasks == 0 {
		t.Fatal("no splits at zipf 1.0")
	}
	if got := outbuf.Summarize(bufs); got != want {
		t.Errorf("summary %+v, oracle %+v", got, want)
	}
}

// TestSteadyStateAllocsPerTask quantifies the in-place rebuild payoff
// inside the real phase: the seed allocated ≥3 objects per task (table
// struct + heads + next); with one table per worker rebuilt in place,
// amortised allocations per task must drop below one (setup + high-water
// growth only).
func TestSteadyStateAllocsPerTask(t *testing.T) {
	const n = 40000
	g := zipf.MustNew(zipf.Config{Theta: 0.5, Universe: n, Seed: 5})
	r, s := g.Pair(n)
	rcfg := radix.Config{Threads: 1, Bits1: 8, Bits2: 0}
	pr := radix.Partition(r.Tuples, rcfg, nil)
	ps := radix.Partition(s.Tuples, rcfg, nil)
	bufs := []*outbuf.Buffer{outbuf.New(0)}

	var tasks int
	allocs := testing.AllocsPerRun(5, func() {
		st := Run(pr, ps, Config{Threads: 1}, bufs)
		tasks = st.Tasks
	})
	if tasks == 0 {
		t.Fatal("no tasks ran")
	}
	if perTask := allocs / float64(tasks); perTask >= 1 {
		t.Errorf("%.2f allocs/task over %d tasks (total %.0f), want < 1", perTask, tasks, allocs)
	}
}

// BenchmarkJoinPhase drives the full phase on a skewed and a uniform
// workload; allocs/op makes the per-task scratch reuse visible.
func BenchmarkJoinPhase(b *testing.B) {
	const n = 1 << 16
	for _, theta := range []float64{0, 1.0} {
		g := zipf.MustNew(zipf.Config{Theta: theta, Universe: n, Seed: 3})
		r, s := g.Pair(n)
		rcfg := radix.Config{Threads: 1, Bits1: 6, Bits2: 2}
		pr := radix.Partition(r.Tuples, rcfg, nil)
		ps := radix.Partition(s.Tuples, rcfg, nil)
		bufs := []*outbuf.Buffer{outbuf.New(0)}
		cfg := Config{Threads: 1, SkewFactor: 4}
		b.Run(fmt.Sprintf("zipf=%g", theta), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Run(pr, ps, cfg, bufs)
			}
		})
	}
}
