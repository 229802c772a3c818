package skewjoin

import (
	"fmt"
	"testing"
)

// TestGoldenWorkloads pins the workload generator and oracle to known
// values for fixed seeds. Any change to the interval construction, key
// sampling, draw procedure or checksum definition shows up here first —
// reproducibility of every experiment in EXPERIMENTS.md depends on these
// staying stable.
func TestGoldenWorkloads(t *testing.T) {
	golden := []struct {
		n        int
		theta    float64
		seed     int64
		matches  uint64
		checksum uint64
	}{
		{10000, 0.0, 42, 9913, 0xb924be6e382c471c},
		{10000, 0.7, 42, 131133, 0xaf5fc23ac7065323},
		{10000, 1.0, 42, 1805154, 0x132d9440ff1c51e3},
		{25000, 0.9, 7, 3524904, 0x274e6542b4769212},
	}
	for _, g := range golden {
		r, s, err := GenerateZipfPair(g.n, g.theta, g.seed)
		if err != nil {
			t.Fatal(err)
		}
		e := Expected(r, s)
		if e.Matches != g.matches || e.Checksum != g.checksum {
			t.Errorf("n=%d zipf=%.1f seed=%d: got (%d, %#x), want (%d, %#x) — generator or checksum changed",
				g.n, g.theta, g.seed, e.Matches, e.Checksum, g.matches, g.checksum)
		}
		// Every algorithm must land exactly on the golden summary too.
		for _, alg := range ExtendedAlgorithms() {
			res, err := Join(alg, r, s, &Options{Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			if res.Matches != g.matches || res.Checksum != g.checksum {
				t.Errorf("%s on golden workload n=%d zipf=%.1f: got (%d, %#x)",
					alg, g.n, g.theta, res.Matches, res.Checksum)
			}
		}
	}
}

// TestGoldenAcrossPartitionVariants pins the partitioner's contract: the
// CPU radix joins land exactly on the golden output whatever the pass
// layout (single pass, the default two passes, a wide second pass) and
// thread count. Both change the scatter windows and the pass-2 task
// queue's dequeue order; neither may change the output.
func TestGoldenAcrossPartitionVariants(t *testing.T) {
	const (
		n     = 10000
		theta = 0.7
		seed  = int64(42)
	)
	const wantMatches, wantChecksum = 131133, uint64(0xaf5fc23ac7065323)
	r, s, err := GenerateZipfPair(n, theta, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{Cbase, CSH} {
		for _, bits := range [][2]uint32{{8, 0}, {6, 5}, {3, 9}} {
			for _, threads := range []int{1, 2, 3} {
				name := fmt.Sprintf("%s/bits=%d+%d/threads=%d", alg, bits[0], bits[1], threads)
				res, err := Join(alg, r, s, &Options{Threads: threads, Bits1: bits[0], Bits2: bits[1]})
				if err != nil {
					t.Fatal(err)
				}
				if res.Matches != wantMatches || res.Checksum != wantChecksum {
					t.Errorf("%s: got (%d, %#x), want (%d, %#x)",
						name, res.Matches, res.Checksum, wantMatches, wantChecksum)
				}
			}
		}
	}
}

// TestGoldenAcrossJoinVariants pins the CPU joins' output to the golden
// digest at every thread count. The join phase's split sub-tasks change
// with the thread count; the output must not. The join-phase probe visits
// must not change either: each S tuple inspects the whole bucket of its
// key, whichever worker probes it.
func TestGoldenAcrossJoinVariants(t *testing.T) {
	const (
		n     = 10000
		theta = 0.7
		seed  = int64(42)
	)
	const wantMatches, wantChecksum = 131133, uint64(0xaf5fc23ac7065323)
	r, s, err := GenerateZipfPair(n, theta, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{Cbase, CSH, CbaseNPJ} {
		var visits uint64
		for _, threads := range []int{1, 2, 3, 4} {
			name := fmt.Sprintf("%s/threads=%d", alg, threads)
			res, err := Join(alg, r, s, &Options{Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			if res.Matches != wantMatches || res.Checksum != wantChecksum {
				t.Errorf("%s: got (%d, %#x), want (%d, %#x)",
					name, res.Matches, res.Checksum, wantMatches, wantChecksum)
			}
			if res.JoinPhase == nil || res.JoinPhase.ProbeVisits == 0 {
				t.Fatalf("%s: join-phase stats missing or empty: %+v", name, res.JoinPhase)
			}
			if visits == 0 {
				visits = res.JoinPhase.ProbeVisits
			} else if res.JoinPhase.ProbeVisits != visits {
				t.Errorf("%s: %d probe visits, threads=1 visited %d", name, res.JoinPhase.ProbeVisits, visits)
			}
		}
	}
}
