package gsmj

import (
	"fmt"
	"reflect"
	"testing"

	"skewjoin/internal/gpusim"
	"skewjoin/internal/oracle"
)

// TestThreadCountOutputInvariant sweeps the host workers simulating the
// thread blocks. GSMJ's merge kernel emits equal-key runs through a
// per-block scratch slice, so the sweep covers both skew extremes
// (uniform: many range merges; full skew: tiled giant runs) and demands a
// bit-identical match with one thread — summary, phases, launch trace and
// stats.
func TestThreadCountOutputInvariant(t *testing.T) {
	for _, theta := range []float64{0, 1.0} {
		r, s := workload(t, 20000, theta, 37)
		want := oracle.Expected(r, s)
		var base Result
		for _, threads := range []int{1, 2, 4} {
			cfg := Config{
				Device:  gpusim.Config{NumSMs: 16, SharedMemBytes: 4 << 10},
				Threads: threads,
			}
			res := Join(r, s, cfg)
			name := fmt.Sprintf("theta=%g/threads=%d", theta, threads)
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
