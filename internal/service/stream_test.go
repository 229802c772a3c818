package service

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"skewjoin/internal/relation"
)

// joinJSON posts a /join request (urlSuffix appends query parameters) and
// decodes the response on 200.
func joinJSON(t *testing.T, base, urlSuffix string, req JoinRequest) (int, JoinResponse, []byte) {
	t.Helper()
	status, raw := doJSON(t, "POST", base+"/join"+urlSuffix, req)
	var resp JoinResponse
	if status == http.StatusOK {
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatalf("decode join response: %v: %s", err, raw)
		}
	}
	return status, resp, raw
}

// TestServiceStreamingLimit covers the /join limit surface end to end:
// body and ?limit=N spellings, auto-selection of the streaming operator,
// stream milestones in the response, and the first-result histogram plus
// limit-hit counters in /stats.
func TestServiceStreamingLimit(t *testing.T) {
	srv := New(Config{ThreadBudget: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	register(t, ts.URL, "r", GenerateSpec{N: 30000, Zipf: 1.0, Seed: 42, Stream: 0})
	register(t, ts.URL, "s", GenerateSpec{N: 30000, Zipf: 1.0, Seed: 42, Stream: 1})

	// Pinned streaming operator with a body limit.
	status, resp, raw := joinJSON(t, ts.URL, "", JoinRequest{R: "r", S: "s", Algorithm: "ssj", Limit: 100})
	if status != http.StatusOK {
		t.Fatalf("ssj+limit: status %d: %s", status, raw)
	}
	st := resp.Stream
	if st == nil || !st.LimitHit || st.Staged < 100 || resp.Matches != st.Staged {
		t.Fatalf("ssj+limit: stream info %+v (matches %d)", st, resp.Matches)
	}
	if st.FirstResultMS <= 0 || st.LimitMS < st.FirstResultMS || st.Chunks == 0 {
		t.Fatalf("ssj+limit: malformed milestones %+v", st)
	}

	// The same limit through the query parameter, on a blocking operator:
	// the limiter path reports milestones too (no chunk count).
	status, resp, raw = joinJSON(t, ts.URL, "?limit=100", JoinRequest{R: "r", S: "s", Algorithm: "cbase"})
	if status != http.StatusOK {
		t.Fatalf("cbase?limit: status %d: %s", status, raw)
	}
	if resp.Stream == nil || !resp.Stream.LimitHit || resp.Stream.Staged < 100 {
		t.Fatalf("cbase?limit: stream info %+v", resp.Stream)
	}

	// Auto with a small limit plans onto the streaming operator.
	status, resp, raw = joinJSON(t, ts.URL, "?limit=50", JoinRequest{R: "r", S: "s"})
	if status != http.StatusOK {
		t.Fatalf("auto?limit: status %d: %s", status, raw)
	}
	if resp.Algorithm != "ssj" || resp.Planner == nil || !resp.Planner.Streaming {
		t.Fatalf("auto?limit: algorithm %q, planner %+v — wanted streaming selection", resp.Algorithm, resp.Planner)
	}

	// An auto full scan stays on a blocking operator and carries no
	// stream block.
	status, resp, raw = joinJSON(t, ts.URL, "", JoinRequest{R: "r", S: "s"})
	if status != http.StatusOK {
		t.Fatalf("auto full: status %d: %s", status, raw)
	}
	if resp.Algorithm == "ssj" || resp.Stream != nil {
		t.Fatalf("auto full scan streamed: algorithm %q, stream %+v", resp.Algorithm, resp.Stream)
	}

	// /stats separates first-result latency from whole-join latency and
	// counts the limit hits.
	stats := getStats(t, ts.URL)
	ssjStats, ok := stats.Algorithms["ssj"]
	if !ok {
		t.Fatalf("no ssj algorithm stats: %+v", stats.Algorithms)
	}
	if ssjStats.FirstResult == nil || ssjStats.FirstResult.Count != 2 {
		t.Fatalf("ssj first-result histogram: %+v", ssjStats.FirstResult)
	}
	if ssjStats.LimitHits != 2 {
		t.Fatalf("ssj limit hits = %d, want 2", ssjStats.LimitHits)
	}
	var total uint64
	for _, b := range ssjStats.FirstResult.Buckets {
		total += b.Count
	}
	if total != ssjStats.FirstResult.Count {
		t.Fatalf("first-result buckets sum %d != count %d", total, ssjStats.FirstResult.Count)
	}
	cb, ok := stats.Algorithms["cbase"]
	if !ok || cb.FirstResult == nil || cb.FirstResult.Count != 1 || cb.LimitHits != 1 {
		t.Fatalf("cbase stats: %+v", cb)
	}
}

// TestServiceLimitValidation pins the 400s: modelled backends cannot
// early-terminate and malformed limits are refused before execution.
func TestServiceLimitValidation(t *testing.T) {
	srv := New(Config{ThreadBudget: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	register(t, ts.URL, "r", GenerateSpec{N: 2000, Zipf: 0.5, Seed: 1, Stream: 0})
	register(t, ts.URL, "s", GenerateSpec{N: 2000, Zipf: 0.5, Seed: 1, Stream: 1})

	cases := []struct {
		name   string
		suffix string
		req    JoinRequest
	}{
		{"pinned gpu", "", JoinRequest{R: "r", S: "s", Algorithm: "gbase", Limit: 10}},
		{"pinned gsmj", "", JoinRequest{R: "r", S: "s", Algorithm: "gsmj", Limit: 10}},
		{"split backend", "", JoinRequest{R: "r", S: "s", Backend: "split", Limit: 10}},
		{"gpu backend via query", "?limit=10", JoinRequest{R: "r", S: "s", Backend: "gpu"}},
		{"negative body limit", "", JoinRequest{R: "r", S: "s", Limit: -3}},
		{"malformed query limit", "?limit=banana", JoinRequest{R: "r", S: "s"}},
		{"negative query limit", "?limit=-1", JoinRequest{R: "r", S: "s"}},
	}
	for _, tc := range cases {
		status, _, raw := joinJSON(t, ts.URL, tc.suffix, tc.req)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", tc.name, status, raw)
		}
	}

	// A limit above the join output is not an error: the join completes
	// with the full digest and no limit hit.
	status, resp, raw := joinJSON(t, ts.URL, "?limit=999999999", JoinRequest{R: "r", S: "s", Algorithm: "ssj"})
	if status != http.StatusOK {
		t.Fatalf("huge limit: status %d: %s", status, raw)
	}
	if resp.Stream == nil || resp.Stream.LimitHit {
		t.Fatalf("huge limit: stream %+v", resp.Stream)
	}
}

// TestServiceStreamHotKeys checks the streaming operator's skew telemetry
// reaches /join: the zipf-1.0 relations' heavy hitters are detected and
// their tuples counted as diverted, while relations with no skew at all
// report none. The unskewed pair holds every key once, so no key can
// recur in the 1% R sample; uniform zipf-0 draws would let a few keys
// recur by chance (about C(N/100, 2)/N of them).
func TestServiceStreamHotKeys(t *testing.T) {
	srv := New(Config{ThreadBudget: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const n = 30000
	register(t, ts.URL, "r1", GenerateSpec{N: n, Zipf: 1.0, Seed: 42, Stream: 0})
	register(t, ts.URL, "s1", GenerateSpec{N: n, Zipf: 1.0, Seed: 42, Stream: 1})
	registerUnique(t, ts.URL, "r0", n, 1)
	registerUnique(t, ts.URL, "s0", n, 2)
	for _, tc := range []struct {
		r, s string
		hot  bool
	}{{"r1", "s1", true}, {"r0", "s0", false}} {
		status, resp, raw := joinJSON(t, ts.URL, "", JoinRequest{R: tc.r, S: tc.s, Algorithm: "ssj"})
		if status != http.StatusOK {
			t.Fatalf("%s⋈%s: status %d: %s", tc.r, tc.s, status, raw)
		}
		st := resp.Stream
		if st == nil {
			t.Fatalf("%s⋈%s: no stream block: %s", tc.r, tc.s, raw)
		}
		if tc.hot && (st.HotKeys == 0 || st.HotTuples == 0) {
			t.Fatalf("zipf 1.0: hot_keys %d, hot_tuples %d, want both > 0", st.HotKeys, st.HotTuples)
		}
		if !tc.hot && (st.HotKeys != 0 || st.HotTuples != 0) {
			t.Fatalf("unique keys: hot_keys %d, hot_tuples %d, want 0", st.HotKeys, st.HotTuples)
		}
	}
}

// registerUnique registers, as inline data, a relation holding each key
// of [0, n) exactly once in a seed-shuffled order.
func registerUnique(t *testing.T, base, name string, n int, seed int64) {
	t.Helper()
	rel := relation.New(n)
	for i, k := range rand.New(rand.NewSource(seed)).Perm(n) {
		rel.Tuples[i] = relation.Tuple{Key: relation.Key(k), Payload: relation.Payload(i)}
	}
	var buf bytes.Buffer
	if _, err := rel.WriteTo(&buf); err != nil {
		t.Fatalf("encode %q: %v", name, err)
	}
	req := RegisterRequest{Name: name, Data: base64.StdEncoding.EncodeToString(buf.Bytes())}
	if status, raw := doJSON(t, "POST", base+"/relations", req); status != http.StatusCreated {
		t.Fatalf("register %q: status %d: %s", name, status, raw)
	}
}
