package gbase

import (
	"fmt"
	"reflect"
	"testing"

	"skewjoin/internal/gpusim"
	"skewjoin/internal/oracle"
)

// TestThreadCountOutputInvariant sweeps the host workers simulating the
// thread blocks: every Threads setting must reproduce not just the oracle
// summary but the one-thread run bit for bit — summary, per-phase
// modelled times, launch trace (float cycles included) and simulator
// stats.
func TestThreadCountOutputInvariant(t *testing.T) {
	for _, theta := range []float64{0, 0.8} {
		r, s := workload(t, 20000, theta, 31)
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
