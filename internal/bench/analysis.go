package bench

import (
	"fmt"
	"io"

	"skewjoin/internal/cbase"
	"skewjoin/internal/gbase"
	"skewjoin/internal/gsh"
	"skewjoin/internal/relation"
)

// AnalysisReport quantifies the paper's §III diagnosis of *why* the
// baselines degrade under skew, per zipf factor: the frequency of the most
// popular key, the longest hash chain a Cbase build table sees, the output
// share of Cbase's single largest join task (its load-balancing failure),
// Gbase's S-side re-probing caused by sub-lists, the SIMT lane-slots Gbase
// wastes to divergence, and the skewed tuples GSH detects and diverts.
type AnalysisReport struct {
	Zipfs []float64
	Rows  []AnalysisRow
}

// AnalysisRow is the diagnosis at one zipf factor.
type AnalysisRow struct {
	Zipf             float64
	TopKeyFreq       int     // tuples sharing the most popular key in R
	MaxChain         int     // longest chain across Cbase build tables
	MaxTaskShare     float64 // fraction of all output produced by Cbase's largest task
	GbaseSubLists    int     // sub-list blocks Gbase spawned
	GbaseSReprobes   uint64  // extra S probes those sub-lists cost
	GbaseDivergence  uint64  // lane-slots wasted to divergence in Gbase
	GSHSkewedKeys    int     // keys GSH detected as skewed
	GSHSkewedTuplesR int     // R tuples GSH diverted
}

// Analysis runs the three diagnostic algorithms across the sweep.
func Analysis(cfg Config) (*AnalysisReport, error) {
	cfg = cfg.Defaults()
	rep := &AnalysisReport{Zipfs: cfg.Zipfs}
	for _, z := range cfg.Zipfs {
		w, err := MakeWorkload(cfg.Tuples, z, cfg.Seed)
		if err != nil {
			return nil, err
		}
		row := AnalysisRow{Zipf: z}
		row.TopKeyFreq = relation.ComputeStats(w.R).MaxKeyFreq

		// Task splitting is disabled so MaxTaskOutput measures the output
		// share of the largest *partition pair* — the unit skew handling
		// cannot break up (§III: same-key tuples always co-locate).
		cb := cbase.Join(w.R, w.S, cbase.Config{Threads: cfg.Threads, SkewFactor: -1})
		row.MaxChain = cb.Stats.Join.MaxChain
		if cb.Summary.Count > 0 {
			row.MaxTaskShare = float64(cb.Stats.Join.MaxTaskOutput) / float64(cb.Summary.Count)
		}

		gb := gbase.Join(w.R, w.S, gbase.Config{Device: cfg.Device, Threads: cfg.Threads})
		row.GbaseSubLists = gb.Stats.SubListBlocks
		row.GbaseSReprobes = gb.Stats.SReprobes
		row.GbaseDivergence = gb.Stats.Sim.DivergenceWasted

		gs := gsh.Join(w.R, w.S, gsh.Config{Device: cfg.Device, Threads: cfg.Threads})
		row.GSHSkewedKeys = gs.Stats.SkewedKeys
		row.GSHSkewedTuplesR = gs.Stats.SkewedTuplesR

		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// Fprint renders the analysis table.
func (ar *AnalysisReport) Fprint(w io.Writer) {
	fmt.Fprintln(w, "== Skew analysis (the paper's §III diagnosis, quantified) ==")
	fmt.Fprintf(w, "%-6s %10s %10s %12s %10s %12s %12s %9s %12s\n",
		"zipf", "top-key", "max-chain", "max-task", "sub-lists", "S-reprobes",
		"divergence", "GSH-keys", "GSH-tuples")
	for _, r := range ar.Rows {
		fmt.Fprintf(w, "%-6.1f %10d %10d %11.1f%% %10d %12d %12d %9d %12d\n",
			r.Zipf, r.TopKeyFreq, r.MaxChain, 100*r.MaxTaskShare,
			r.GbaseSubLists, r.GbaseSReprobes, r.GbaseDivergence,
			r.GSHSkewedKeys, r.GSHSkewedTuplesR)
	}
	fmt.Fprintln(w)
}
