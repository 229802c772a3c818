package gsh

import (
	"fmt"
	"reflect"
	"testing"

	"skewjoin/internal/gpusim"
	"skewjoin/internal/oracle"
	"skewjoin/internal/outbuf"
)

// TestThreadCountOutputInvariant sweeps the host workers simulating the
// thread blocks. GSH has the most execution-order hazards of the GPU
// joins — detect merges top-k key sets across blocks, divide appends to
// shared per-key arrays, skew-join emits payload runs — so every Threads
// setting must reproduce the one-thread run bit for bit: summary,
// per-phase modelled times, launch trace and stats. Both the regular
// post-partition design and the DetectBefore ablation are swept.
func TestThreadCountOutputInvariant(t *testing.T) {
	for _, theta := range []float64{0, 0.8} {
		for _, detectBefore := range []bool{false, true} {
			r, s := workload(t, 20000, theta, 33)
			want := oracle.Expected(r, s)
			var base Result
			for _, threads := range []int{1, 2, 4} {
				cfg := Config{
					Device:       gpusim.Config{NumSMs: 16, SharedMemBytes: 4 << 10},
					Threads:      threads,
					DetectBefore: detectBefore,
				}
				res := Join(r, s, cfg)
				name := fmt.Sprintf("theta=%g/detectbefore=%v/threads=%d", theta, detectBefore, threads)
				if res.Summary != want {
					t.Fatalf("%s: summary %+v, oracle %+v", name, res.Summary, want)
				}
				if threads == 1 {
					base = res
					continue
				}
				if !reflect.DeepEqual(res.Phases, base.Phases) {
					t.Errorf("%s: phases differ from one thread\ngot:  %+v\nwant: %+v", name, res.Phases, base.Phases)
				}
				if !reflect.DeepEqual(res.Trace, base.Trace) {
					t.Errorf("%s: launch trace differs from one thread", name)
				}
				if res.Stats != base.Stats {
					t.Errorf("%s: stats differ from one thread\ngot:  %+v\nwant: %+v", name, res.Stats, base.Stats)
				}
			}
		}
	}
}

// TestThreadCountWithFlushConsumer runs GSH at several thread counts with
// a per-SM flush consumer installed and a shared-memory budget small
// enough that several partitions run large: the consumer must observe an
// identical batch stream for every Threads setting (a consumer forces
// in-order block execution), not merely an identical final summary.
func TestThreadCountWithFlushConsumer(t *testing.T) {
	r, s := workload(t, 20000, 1.0, 35)
	run := func(threads int) [][]int {
		var streams [][]int
		cfg := Config{
			Device:  gpusim.Config{NumSMs: 8, SharedMemBytes: 2 << 10},
			Threads: threads,
			Flush: func(sm int) outbuf.FlushFunc {
				return func(batch []outbuf.Result) {
					row := make([]int, 0, len(batch)+1)
					row = append(row, sm)
					for _, res := range batch {
						row = append(row, int(res.Key))
					}
					streams = append(streams, row)
				}
			},
		}
		Join(r, s, cfg)
		return streams
	}
	serial := run(1)
	if len(serial) == 0 {
		t.Fatal("no flush batches observed; shrink the ring or grow the workload")
	}
	for _, threads := range []int{2, 4} {
		if got := run(threads); !reflect.DeepEqual(got, serial) {
			t.Errorf("threads=%d: flush batch stream differs from one thread", threads)
		}
	}
}
