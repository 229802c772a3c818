package csh

import (
	"math/rand"
	"testing"

	"skewjoin/internal/oracle"
	"skewjoin/internal/relation"
	"skewjoin/internal/zipf"
)

func workload(t *testing.T, n int, theta float64, seed int64) (relation.Relation, relation.Relation) {
	t.Helper()
	g, err := zipf.New(zipf.Config{Theta: theta, Universe: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	r, s := g.Pair(n)
	return r, s
}

func TestJoinMatchesOracleAcrossSkew(t *testing.T) {
	for _, theta := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		r, s := workload(t, 20000, theta, 42)
		want := oracle.Expected(r, s)
		got := Join(r, s, Config{Threads: 4})
		if got.Summary != want {
			t.Errorf("theta=%.2f: got %+v, want %+v", theta, got.Summary, want)
		}
	}
}

func TestJoinEmptyInputs(t *testing.T) {
	var empty relation.Relation
	r, s := workload(t, 1000, 0.8, 7)
	if res := Join(empty, s, Config{Threads: 2}); res.Summary.Count != 0 {
		t.Errorf("empty R: got %d results", res.Summary.Count)
	}
	if res := Join(r, empty, Config{Threads: 2}); res.Summary.Count != 0 {
		t.Errorf("empty S: got %d results", res.Summary.Count)
	}
	if res := Join(empty, empty, Config{Threads: 2}); res.Summary.Count != 0 {
		t.Errorf("both empty: got %d results", res.Summary.Count)
	}
}

func TestSkewDetectionFindsTopKey(t *testing.T) {
	r, s := workload(t, 50000, 1.0, 3)
	res := Join(r, s, Config{Threads: 2})
	if res.Stats.SkewedKeys == 0 {
		t.Fatal("expected skewed keys at zipf 1.0")
	}
	st := relation.ComputeStats(r)
	// The most popular key must be among the detected skewed tuples: the
	// top key alone should account for most of the diverted R tuples.
	if res.Stats.SkewedTuplesR < st.MaxKeyFreq {
		t.Errorf("skewed R tuples %d < top key frequency %d: top key not detected",
			res.Stats.SkewedTuplesR, st.MaxKeyFreq)
	}
	if res.Stats.SkewOutput == 0 {
		t.Error("expected skew output during partition phase at zipf 1.0")
	}
}

func TestUniformDataDetectsNoSkew(t *testing.T) {
	// With theta=0 and universe == n, sampled frequencies are ~1; the
	// threshold-2 rule should mark (almost) nothing and everything flows
	// through the NM-join.
	r, s := workload(t, 50000, 0, 11)
	res := Join(r, s, Config{Threads: 2})
	if res.Stats.SkewedTuplesR > r.Len()/100 {
		t.Errorf("uniform data diverted %d R tuples (>1%%)", res.Stats.SkewedTuplesR)
	}
	want := oracle.Expected(r, s)
	if res.Summary != want {
		t.Errorf("got %+v, want %+v", res.Summary, want)
	}
}

func TestJoinIsPermutationInvariant(t *testing.T) {
	r, s := workload(t, 10000, 0.9, 5)
	base := Join(r, s, Config{Threads: 3}).Summary
	rng := rand.New(rand.NewSource(1))
	r2, s2 := r.Clone(), s.Clone()
	r2.Shuffle(rng)
	s2.Shuffle(rng)
	if got := Join(r2, s2, Config{Threads: 3}).Summary; got != base {
		t.Errorf("shuffled inputs changed result: got %+v, want %+v", got, base)
	}
}

func TestThreadCountInvariance(t *testing.T) {
	r, s := workload(t, 15000, 0.95, 9)
	want := oracle.Expected(r, s)
	for _, threads := range []int{1, 2, 5, 16} {
		got := Join(r, s, Config{Threads: threads}).Summary
		if got != want {
			t.Errorf("threads=%d: got %+v, want %+v", threads, got, want)
		}
	}
}

func TestConfigKnobs(t *testing.T) {
	r, s := workload(t, 20000, 0.9, 13)
	want := oracle.Expected(r, s)
	cases := []Config{
		{Threads: 2, SampleRate: 0.001},
		{Threads: 2, SampleRate: 0.1},
		{Threads: 2, SkewThreshold: 5},
		{Threads: 2, Bits1: 3, Bits2: 2},
		{Threads: 2, Bits1: 8, Bits2: 0},
		{Threads: 2, SkewFactor: -1}, // disables NM-join task splitting
		{Threads: 2, OutBufCap: 16},
	}
	for i, cfg := range cases {
		if got := Join(r, s, cfg).Summary; got != want {
			t.Errorf("case %d (%+v): got %+v, want %+v", i, cfg, got, want)
		}
	}
}

func TestCheckupTable(t *testing.T) {
	keys := []relation.Key{5, 99, 12345, 0, 7}
	ct := newCheckupTable(keys)
	if ct.size() != len(keys) {
		t.Fatalf("size = %d, want %d", ct.size(), len(keys))
	}
	for i, k := range keys {
		if id := ct.lookup(k); id != int32(i) {
			t.Errorf("lookup(%d) = %d, want %d", k, id, i)
		}
	}
	for _, absent := range []relation.Key{1, 2, 100, 1 << 30} {
		if ct.contains(absent) {
			t.Errorf("contains(%d) = true for absent key", absent)
		}
	}
}

func TestCheckupTableDuplicateKeysKeepFirstID(t *testing.T) {
	ct := newCheckupTable([]relation.Key{8, 8, 9})
	if id := ct.lookup(8); id != 0 {
		t.Errorf("lookup(8) = %d, want 0", id)
	}
	if id := ct.lookup(9); id != 2 {
		t.Errorf("lookup(9) = %d, want 2", id)
	}
}

func TestCheckupTableEmpty(t *testing.T) {
	ct := newCheckupTable(nil)
	if ct.contains(1) {
		t.Error("empty table contains key")
	}
	if ct.size() != 0 {
		t.Errorf("size = %d, want 0", ct.size())
	}
}

// TestNMTimingSplit checks BuildNs/ProbeNs through CSH's NM-join: positive
// whenever normal partitions exist, and bounded by threads × nmjoin wall.
func TestNMTimingSplit(t *testing.T) {
	const threads = 3
	r, s := workload(t, 30000, 0.5, 33)
	res := Join(r, s, Config{Threads: threads})
	st := res.Stats.NM
	if st.BuildNs <= 0 || st.ProbeNs <= 0 {
		t.Fatalf("BuildNs=%d ProbeNs=%d, want both positive", st.BuildNs, st.ProbeNs)
	}
	var nmWall int64
	for _, p := range res.Phases {
		if p.Name == "nmjoin" {
			nmWall = p.Duration.Nanoseconds()
		}
	}
	if nmWall == 0 {
		t.Fatal("no nmjoin phase recorded")
	}
	if budget := threads*nmWall + int64(1e6); st.BuildNs+st.ProbeNs > budget {
		t.Errorf("BuildNs+ProbeNs = %d exceeds %d (threads × nmjoin wall + grain)",
			st.BuildNs+st.ProbeNs, budget)
	}
}
