package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	// 100 distinct samples: p90 is the 90th, exactly 10 lie beyond it.
	if p, ok := tailPercentile(seq(100), 0.9); !ok || p != 90 {
		t.Fatalf("n=100: got p90=%v reportable=%v, want 90 true", p, ok)
	}
	// 99 samples: p90 is the 90th, only 9 lie beyond it.
	if p, ok := tailPercentile(seq(99), 0.9); ok || p != 90 {
		t.Fatalf("n=99: got p90=%v reportable=%v, want 90 false", p, ok)
	}
	// Ties at the percentile do not count as beyond it.
	xs := seq(100)
	for i := range xs {
		if xs[i] > 85 && xs[i] < 95 {
			xs[i] = 90
		}
	}
	if _, ok := tailPercentile(xs, 0.9); ok {
		t.Fatalf("tied tail: 6 samples beyond p90 reported as enough")
	}
	if p := median(seq(5)); p != 3 {
		t.Fatalf("median of 1..5 = %v, want 3", p)
	}
	if p := percentile(nil, 0.5); p != 0 {
		t.Fatalf("percentile of no samples = %v, want 0", p)
	}
}

func TestSelfTimeUnionsOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		// Three concurrent shard calls: 10–60, 20–40 and 50–70 cover
		// 10–70 once, not 40+20+20.
		{"overlapping", []interval{{20, 40}, {10, 60}, {50, 70}}, 40},
		{"nested", []interval{{10, 90}, {20, 30}}, 20},
		{"touching", []interval{{10, 20}, {20, 30}}, 80},
		// A child that outlives its parent (a call still draining its
		// body) only covers the parent's part.
		{"clipped", []interval{{-10, 10}, {90, 120}}, 80},
		{"empty child", []interval{{40, 40}}, 100},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestErrorRateCountsShedTimeoutsAndMismatches(t *testing.T) {
	outs := []outcome{
		{status: http.StatusOK},
		{status: http.StatusOK},
		{status: http.StatusTooManyRequests},
		{status: http.StatusGatewayTimeout},
		{status: http.StatusOK, verify: errors.New("digest mismatch")},
		{transport: errors.New("connection reset")},
		{status: http.StatusOK},
		{status: http.StatusOK},
	}
	win := &window{}
	for i, o := range outs {
		win.samples = append(win.samples, sample{id: int64(i), out: o})
	}
	res := newResult(win)
	if res.Attempted != 8 || res.Failed != 4 {
		t.Fatalf("attempted %d failed %d, want 8 and 4 (error rate 0.5)", res.Attempted, res.Failed)
	}
	if res.Correct {
		t.Fatalf("a digest mismatch left the run correct")
	}
	if got := len(win.verified()); got != 4 {
		t.Fatalf("%d verified latencies, want 4", got)
	}
}

// TestBenchmarkJSONMatchesTables keeps the committed BENCHMARK.json and
// the program's workload and metric tables in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeDescription(&buf); err != nil {
		t.Fatal(err)
	}
	var a, b any
	if err := json.Unmarshal(committed, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("BENCHMARK.json differs from the tables; regenerate with\n  (cd perfbench && go run . --describe) > BENCHMARK.json")
	}
}

// TestRunsVerifyAndReportEveryMetric drives small single-node and fleet
// workloads through both run modes. Under -race it also exercises the
// recorder from the concurrent handler, transport and client goroutines.
func TestRunsVerifyAndReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and drives them for a few seconds")
	}
	small := []workload{
		{name: "single", n: 1 << 12, zipf: 0.5, pairs: 2, clients: 2},
		{name: "limited", n: 1 << 13, zipf: 0.5, pairs: 1, clients: 2, limit: 100},
		{name: "fleet", n: 1 << 10, zipf: 0.9, pairs: 2, clients: 1, consumer: "topk", shards: 3, shardBudget: 1},
	}
	for _, w := range small {
		for _, traceOn := range []bool{false, true} {
			res, info, err := measure(w, 7, time.Second, traceOn, "")
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traceOn, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, traceOn, res.Correct, res.Attempted, res.Failed)
			}
			want := perLayer
			if !traceOn {
				want = nil
				for _, m := range endToEnd {
					want = append(want, m.metric)
				}
				if info.TailSamples < minTail {
					t.Errorf("%s: %d samples beyond p90, want at least %d", w.name, info.TailSamples, minTail)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, traceOn, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if _, ok := res.Metrics[m.name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, traceOn, m.name)
				}
			}
		}
	}
}
