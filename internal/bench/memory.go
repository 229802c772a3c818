package bench

import (
	"fmt"
	"io"
	"runtime"

	"skewjoin/internal/cbase"
	"skewjoin/internal/csh"
	"skewjoin/internal/gbase"
	"skewjoin/internal/gsh"
	"skewjoin/internal/npj"
	"skewjoin/internal/outbuf"
	"skewjoin/internal/smj"
)

// MemoryReport records the heap bytes each algorithm allocates for one
// join, per zipf factor. The paper's algorithms differ in working-set
// shape — Cbase ping-pongs two partition copies, CSH adds per-key skewed
// arrays, Gbase materialises bucket lists, GSH divides large partitions,
// SMJ keeps two sorted copies — and the report makes those costs visible
// relative to the input size.
type MemoryReport struct {
	Zipfs      []float64
	InputBytes int
	Series     []MemSeries
	Errors     []string
}

// MemSeries is one algorithm's allocation per zipf factor.
type MemSeries struct {
	Name  string
	Bytes []uint64
}

// Memory measures per-join allocations across the sweep.
func Memory(cfg Config) (*MemoryReport, error) {
	cfg = cfg.Defaults()
	rep := &MemoryReport{Zipfs: cfg.Zipfs, InputBytes: 2 * cfg.Tuples * 8}
	algs := []struct {
		name string
		run  func(w Workload) outbuf.Summary
	}{
		{"cbase", func(w Workload) outbuf.Summary {
			return cbase.Join(w.R, w.S, cbase.Config{Threads: cfg.Threads}).Summary
		}},
		{"cbase-npj", func(w Workload) outbuf.Summary {
			return npj.Join(w.R, w.S, npj.Config{Threads: cfg.Threads}).Summary
		}},
		{"csh", func(w Workload) outbuf.Summary {
			return csh.Join(w.R, w.S, csh.Config{Threads: cfg.Threads}).Summary
		}},
		{"gbase", func(w Workload) outbuf.Summary {
			return gbase.Join(w.R, w.S, gbase.Config{Device: cfg.Device, Threads: cfg.Threads}).Summary
		}},
		{"gsh", func(w Workload) outbuf.Summary {
			return gsh.Join(w.R, w.S, gsh.Config{Device: cfg.Device, Threads: cfg.Threads}).Summary
		}},
		{"smj", func(w Workload) outbuf.Summary {
			return smj.Join(w.R, w.S, smj.Config{Threads: cfg.Threads}).Summary
		}},
	}
	rep.Series = make([]MemSeries, len(algs))
	for i, a := range algs {
		rep.Series[i].Name = a.name
	}
	for _, z := range cfg.Zipfs {
		w, err := MakeWorkload(cfg.Tuples, z, cfg.Seed)
		if err != nil {
			return nil, err
		}
		for i, a := range algs {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			got := a.run(w)
			runtime.ReadMemStats(&after)
			if got != w.Expected {
				rep.Errors = append(rep.Errors,
					fmt.Sprintf("%s @ zipf %.1f: output %+v, expected %+v", a.name, z, got, w.Expected))
			}
			rep.Series[i].Bytes = append(rep.Series[i].Bytes, after.TotalAlloc-before.TotalAlloc)
		}
	}
	return rep, nil
}

// Fprint renders allocations as multiples of the input size.
func (rep *MemoryReport) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== Per-join heap allocations (x input size, input = %d MiB) ==\n",
		rep.InputBytes>>20)
	fmt.Fprintf(w, "%-12s", "zipf")
	for _, z := range rep.Zipfs {
		fmt.Fprintf(w, "%9.1f", z)
	}
	fmt.Fprintln(w)
	for _, s := range rep.Series {
		fmt.Fprintf(w, "%-12s", s.Name)
		for _, b := range s.Bytes {
			fmt.Fprintf(w, "%8.2fx", float64(b)/float64(rep.InputBytes))
		}
		fmt.Fprintln(w)
	}
	for _, e := range rep.Errors {
		fmt.Fprintf(w, "VERIFICATION FAILED: %s\n", e)
	}
	fmt.Fprintln(w)
}
