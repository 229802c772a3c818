package bench

import (
	"skewjoin/internal/cbase"
	"skewjoin/internal/csh"
	"skewjoin/internal/gbase"
	"skewjoin/internal/gsh"
	"skewjoin/internal/gsmj"
	"skewjoin/internal/smj"
)

// SortVsHash is the extension experiment revisiting the sort-vs-hash
// question ([13], [17] in the paper) under skew: the parallel sort-merge
// join against the baseline radix join and the skew-conscious CSH.
//
// The expected shape: SMJ pays its sort at every skew level (losing to
// hash joins on uniform data) but its merge phase generates equal-key
// cross products with the same sequential access pattern CSH uses for its
// skew fast path — so at high skew SMJ overtakes Cbase while CSH, which
// only pays the sequential treatment for the keys that need it, stays
// ahead of both.
func SortVsHash(cfg Config) (*Report, error) {
	cfg = cfg.Defaults()
	rep := &Report{Title: "Sort vs hash under skew (extension experiment)", Zipfs: cfg.Zipfs}
	rows := make([]Series, 6)
	rows[0].Name = "Cbase (radix hash)"
	rows[1].Name = "CSH (skew-conscious)"
	rows[2].Name = "SMJ (sort-merge)"
	rows[3].Name = "Gbase (GPU hash)"
	rows[4].Name = "GSH (GPU skew-consc.)"
	rows[5].Name = "GSMJ (GPU sort-merge)"
	for _, z := range cfg.Zipfs {
		w, err := MakeWorkload(cfg.Tuples, z, cfg.Seed)
		if err != nil {
			return nil, err
		}
		cb := cbase.Join(w.R, w.S, cbase.Config{Threads: cfg.Threads})
		rep.verify("cbase", z, cb.Summary, w.Expected)
		rows[0].Cells = append(rows[0].Cells, Cell{Duration: cb.Total()})

		cs := csh.Join(w.R, w.S, csh.Config{Threads: cfg.Threads})
		rep.verify("csh", z, cs.Summary, w.Expected)
		rows[1].Cells = append(rows[1].Cells, Cell{Duration: cs.Total()})

		sm := smj.Join(w.R, w.S, smj.Config{Threads: cfg.Threads})
		rep.verify("smj", z, sm.Summary, w.Expected)
		rows[2].Cells = append(rows[2].Cells, Cell{Duration: sm.Total()})

		gb := gbase.Join(w.R, w.S, gbase.Config{Device: cfg.Device, Threads: cfg.Threads})
		rep.verify("gbase", z, gb.Summary, w.Expected)
		rows[3].Cells = append(rows[3].Cells, Cell{Duration: gb.Total(), Modelled: true})

		gs := gsh.Join(w.R, w.S, gsh.Config{Device: cfg.Device, Threads: cfg.Threads})
		rep.verify("gsh", z, gs.Summary, w.Expected)
		rows[4].Cells = append(rows[4].Cells, Cell{Duration: gs.Total(), Modelled: true})

		gm := gsmj.Join(w.R, w.S, gsmj.Config{Device: cfg.Device, Threads: cfg.Threads})
		rep.verify("gsmj", z, gm.Summary, w.Expected)
		rows[5].Cells = append(rows[5].Cells, Cell{Duration: gm.Total(), Modelled: true})
	}
	rep.Series = rows
	return rep, nil
}
