package skewjoin

import "testing"

// TestOptionsThreadsGPU sweeps Options.Threads over every GPU algorithm:
// Threads sizes the host workers that simulate the thread blocks, so any
// value must reproduce the one-thread result exactly, both the output
// summary and the modelled phase times.
func TestOptionsThreadsGPU(t *testing.T) {
	r, s, err := GenerateZipfPair(1<<14, 0.9, 42)
	if err != nil {
		t.Fatal(err)
	}
	want := Expected(r, s)
	dev := DeviceConfig{NumSMs: 16, SharedMemBytes: 4 << 10}
	for _, alg := range []Algorithm{Gbase, GSH, GSMJ} {
		serial, err := Join(alg, r, s, &Options{Device: dev, Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		if serial.Summary() != want {
			t.Fatalf("%s threads=1: summary %+v, oracle %+v", alg, serial.Summary(), want)
		}
		for _, threads := range []int{2, 4} {
			res, err := Join(alg, r, s, &Options{Device: dev, Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			if res.Summary() != want {
				t.Errorf("%s threads=%d: summary %+v, oracle %+v", alg, threads, res.Summary(), want)
			}
			if res.Total != serial.Total {
				t.Errorf("%s threads=%d: modelled total %v, threads=1 %v", alg, threads, res.Total, serial.Total)
			}
			if len(res.Phases) != len(serial.Phases) {
				t.Fatalf("%s threads=%d: phase count %d, threads=1 %d", alg, threads, len(res.Phases), len(serial.Phases))
			}
			for i := range res.Phases {
				if res.Phases[i] != serial.Phases[i] {
					t.Errorf("%s threads=%d: phase %+v, threads=1 %+v", alg, threads, res.Phases[i], serial.Phases[i])
				}
			}
		}
	}
}
