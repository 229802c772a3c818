package cbase

import (
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
		t.Errorf("empty R: %d results", res.Summary.Count)
	}
	if res := Join(r, empty, Config{Threads: 2}); res.Summary.Count != 0 {
		t.Errorf("empty S: %d results", res.Summary.Count)
	}
}

func TestThreadCountInvariance(t *testing.T) {
	r, s := workload(t, 15000, 0.9, 9)
	want := oracle.Expected(r, s)
	for _, threads := range []int{1, 2, 7, 16} {
		if got := Join(r, s, Config{Threads: threads}).Summary; got != want {
			t.Errorf("threads=%d: got %+v, want %+v", threads, got, want)
		}
	}
}

func TestRadixBitsInvariance(t *testing.T) {
	r, s := workload(t, 10000, 0.7, 11)
	want := oracle.Expected(r, s)
	for _, bits := range [][2]uint32{{2, 0}, {3, 3}, {8, 0}, {6, 5}, {1, 1}} {
		cfg := Config{Threads: 2, Bits1: bits[0], Bits2: bits[1]}
		if got := Join(r, s, cfg).Summary; got != want {
			t.Errorf("bits=%v: got %+v, want %+v", bits, got, want)
		}
	}
}

func TestExtremeBitsClampedNotFatal(t *testing.T) {
	// Misconfigured radix bits must clamp to a sane fanout instead of
	// attempting a 2^60-partition allocation.
	r, s := workload(t, 2000, 0.5, 19)
	want := oracle.Expected(r, s)
	res := Join(r, s, Config{Threads: 2, Bits1: 30, Bits2: 30})
	if res.Summary != want {
		t.Errorf("got %+v, want %+v", res.Summary, want)
	}
	if res.Stats.Fanout > 1<<20 {
		t.Errorf("fanout %d not clamped", res.Stats.Fanout)
	}
}

func TestSkewHandlingSplitsLargeTasks(t *testing.T) {
	r, s := workload(t, 100000, 1.0, 3)
	res := Join(r, s, Config{Threads: 4})
	if res.Stats.Join.SplitTasks == 0 {
		t.Error("zipf 1.0 should trigger task splitting")
	}
	if res.Stats.Join.MaxChain < 1000 {
		t.Errorf("zipf 1.0 max chain = %d, expected a long chain", res.Stats.Join.MaxChain)
	}

	r, s = workload(t, 100000, 0, 3)
	res = Join(r, s, Config{Threads: 4})
	if res.Stats.Join.MaxChain > 64 {
		t.Errorf("uniform data max chain = %d", res.Stats.Join.MaxChain)
	}
}

func TestSplittingDisabled(t *testing.T) {
	r, s := workload(t, 20000, 0.95, 5)
	want := oracle.Expected(r, s)
	res := Join(r, s, Config{Threads: 2, SkewFactor: -1})
	if res.Stats.Join.SplitTasks != 0 {
		t.Errorf("SkewFactor<0 still split %d tasks", res.Stats.Join.SplitTasks)
	}
	if res.Summary != want {
		t.Errorf("got %+v, want %+v", res.Summary, want)
	}
}

func TestPhasesRecorded(t *testing.T) {
	r, s := workload(t, 5000, 0.5, 13)
	res := Join(r, s, Config{Threads: 2})
	names := map[string]bool{}
	for _, p := range res.Phases {
		names[p.Name] = true
	}
	if !names["partition"] || !names["join"] {
		t.Errorf("phases = %+v", res.Phases)
	}
	if res.Total() <= 0 {
		t.Errorf("total = %v", res.Total())
	}
}

func TestStatsPlausible(t *testing.T) {
	r, s := workload(t, 30000, 0.8, 17)
	res := Join(r, s, Config{Threads: 2})
	if res.Stats.Fanout != 1<<11 {
		t.Errorf("default fanout = %d", res.Stats.Fanout)
	}
	if res.Stats.MaxPartitionR <= 0 || res.Stats.MaxPartitionR > r.Len() {
		t.Errorf("MaxPartitionR = %d", res.Stats.MaxPartitionR)
	}
	if res.Stats.Join.ProbeVisits < res.Summary.Count {
		t.Errorf("probe visits %d < matches %d", res.Stats.Join.ProbeVisits, res.Summary.Count)
	}
}

func TestDuplicateHeavyInput(t *testing.T) {
	// Everything is one key: output is the full cross product.
	n := 500
	keys := make([]relation.Key, n)
	pays := make([]relation.Payload, n)
	for i := range keys {
		keys[i] = 42
		pays[i] = relation.Payload(i)
	}
	r := relation.FromPairs(keys, pays)
	s := relation.FromPairs(keys, pays)
	res := Join(r, s, Config{Threads: 3})
	if res.Summary.Count != uint64(n)*uint64(n) {
		t.Errorf("count = %d, want %d", res.Summary.Count, n*n)
	}
	if res.Summary != oracle.Expected(r, s) {
		t.Error("checksum mismatch on single-key input")
	}
}

// TestJoinTimingSplit checks the BuildNs/ProbeNs plumbing from the join
// phase into Stats: both positive, and their sum bounded by the thread
// count times the recorded join-phase wall clock.
func TestJoinTimingSplit(t *testing.T) {
	const threads = 3
	r, s := workload(t, 30000, 0.8, 23)
	res := Join(r, s, Config{Threads: threads})
	st := res.Stats.Join
	if st.BuildNs <= 0 || st.ProbeNs <= 0 {
		t.Fatalf("BuildNs=%d ProbeNs=%d, want both positive", st.BuildNs, st.ProbeNs)
	}
	var joinWall int64
	for _, p := range res.Phases {
		if p.Name == "join" {
			joinWall = p.Duration.Nanoseconds()
		}
	}
	if joinWall == 0 {
		t.Fatal("no join phase recorded")
	}
	if budget := threads*joinWall + int64(1e6); st.BuildNs+st.ProbeNs > budget {
		t.Errorf("BuildNs+ProbeNs = %d exceeds %d (threads × join wall + grain)",
			st.BuildNs+st.ProbeNs, budget)
	}
}
