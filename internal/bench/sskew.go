package bench

import (
	"fmt"
	"io"

	"skewjoin/internal/asciiplot"
	"skewjoin/internal/cbase"
	"skewjoin/internal/csh"
	"skewjoin/internal/gbase"
	"skewjoin/internal/gsh"
	"skewjoin/internal/oracle"
	"skewjoin/internal/outbuf"
	"skewjoin/internal/zipf"
)

// SSkewReport is the extension experiment isolating S-side skew: a
// foreign-key workload where R holds every key exactly once (no R skew at
// all) and S's foreign keys are zipf-distributed.
//
// The paper notes Gbase's sub-list technique "does not handle the data
// skew in table S" (§II-B) — but in its evaluation S skew always comes
// with R skew (shared interval arrays). This experiment separates them,
// and the result is a negative finding that sharpens the paper's: with
// unique R keys the join output is exactly |S|, probe chains have length
// one, and one-sided S skew is benign — the baselines barely degrade, and
// skew detection cannot pay for itself (CSH samples R, finds nothing, and
// rightly degenerates to Cbase). S-side skew only hurts *through* R-side
// multiplicity; the paper's dual-skew workload is the genuinely hard case.
// The experiment also exercises the degenerate corner of the paper's
// skew-join scheme (one block per skewed R tuple — a single block when a
// skewed key has one R tuple) and the S-tiling extension that fixes it.
type SSkewReport struct {
	Zipfs  []float64
	Series []Series
	Errors []string
}

// SSkew runs the foreign-key one-sided-skew sweep.
func SSkew(cfg Config) (*SSkewReport, error) {
	cfg = cfg.Defaults()
	rep := &SSkewReport{Zipfs: cfg.Zipfs}
	rows := make([]Series, 5)
	rows[0].Name = "Cbase"
	rows[1].Name = "CSH"
	rows[2].Name = "Gbase"
	rows[3].Name = "GSH (paper skew-join)"
	rows[4].Name = "GSH (S-tiled)"

	for _, z := range cfg.Zipfs {
		g, err := zipf.New(zipf.Config{Theta: z, Universe: cfg.Tuples / 4, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		r, s := g.FKPair(cfg.Tuples)
		want := oracle.Expected(r, s)
		verify := func(name string, got outbuf.Summary) {
			if got != want {
				rep.Errors = append(rep.Errors,
					fmt.Sprintf("%s @ zipf %.1f: output %+v, expected %+v", name, z, got, want))
			}
		}

		cb := cbase.Join(r, s, cbase.Config{Threads: cfg.Threads})
		verify("cbase", cb.Summary)
		rows[0].Cells = append(rows[0].Cells, Cell{Duration: cb.Total()})

		cs := csh.Join(r, s, csh.Config{Threads: cfg.Threads})
		verify("csh", cs.Summary)
		rows[1].Cells = append(rows[1].Cells, Cell{Duration: cs.Total()})

		gb := gbase.Join(r, s, gbase.Config{Device: cfg.Device, Threads: cfg.Threads})
		verify("gbase", gb.Summary)
		rows[2].Cells = append(rows[2].Cells, Cell{Duration: gb.Total(), Modelled: true})

		gp := gsh.Join(r, s, gsh.Config{Device: cfg.Device, Threads: cfg.Threads, STileTuples: -1})
		verify("gsh-paper", gp.Summary)
		rows[3].Cells = append(rows[3].Cells, Cell{Duration: gp.Total(), Modelled: true})

		gt := gsh.Join(r, s, gsh.Config{Device: cfg.Device, Threads: cfg.Threads})
		verify("gsh-tiled", gt.Summary)
		rows[4].Cells = append(rows[4].Cells, Cell{Duration: gt.Total(), Modelled: true})
	}
	rep.Series = rows
	return rep, nil
}

// Plot renders the report as a log-scale ASCII chart.
func (rep *SSkewReport) Plot(w io.Writer) {
	series := make([]asciiplot.Series, len(rep.Series))
	for i, s := range rep.Series {
		ys := make([]float64, len(s.Cells))
		for j, c := range s.Cells {
			ys[j] = c.Duration.Seconds()
		}
		series[i] = asciiplot.Series{Name: s.Name, Ys: ys}
	}
	asciiplot.Render(w, "S-side-only skew (log-scale seconds; GPU series are modelled)", rep.Zipfs, series, 0)
}

// Fprint renders the report.
func (rep *SSkewReport) Fprint(w io.Writer) {
	fmt.Fprintln(w, "== S-side-only skew: foreign-key workload (extension experiment) ==")
	fmt.Fprintf(w, "%-22s", "zipf")
	for _, z := range rep.Zipfs {
		fmt.Fprintf(w, "%12.1f", z)
	}
	fmt.Fprintln(w)
	for _, s := range rep.Series {
		fmt.Fprintf(w, "%-22s", s.Name)
		for _, c := range s.Cells {
			fmt.Fprintf(w, "%12s", FormatCell(c))
		}
		fmt.Fprintln(w)
	}
	for _, e := range rep.Errors {
		fmt.Fprintf(w, "VERIFICATION FAILED: %s\n", e)
	}
	fmt.Fprintln(w)
}
