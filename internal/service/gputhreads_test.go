package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"skewjoin"
)

// TestJoinThreadsGPU checks that a GPU join's thread weight changes only
// how fast the host simulates it: threads 1 and 4 on gsh must return
// identical replies apart from the wall-clock fields, agreeing with a
// direct library call. A request still carrying the removed
// host_parallelism field is refused by the strict decoder.
func TestJoinThreadsGPU(t *testing.T) {
	srv := New(Config{ThreadBudget: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	spec := GenerateSpec{N: 1 << 14, Zipf: 0.9, Seed: 42}
	register(t, ts.URL, "r", GenerateSpec{N: spec.N, Zipf: spec.Zipf, Seed: spec.Seed, Stream: 0})
	register(t, ts.URL, "s", GenerateSpec{N: spec.N, Zipf: spec.Zipf, Seed: spec.Seed, Stream: 1})

	runJoin := func(threads int) JoinResponse {
		t.Helper()
		status, raw := doJSON(t, "POST", ts.URL+"/join", JoinRequest{
			R: "r", S: "s", Algorithm: "gsh", Threads: threads,
		})
		if status != http.StatusOK {
			t.Fatalf("join threads=%d: status %d: %s", threads, status, raw)
		}
		var jr JoinResponse
		if err := json.Unmarshal(raw, &jr); err != nil {
			t.Fatal(err)
		}
		jr.WaitMS, jr.JoinMS = 0, 0
		return jr
	}

	serial := runJoin(1)
	if pooled := runJoin(4); !reflect.DeepEqual(pooled, serial) {
		t.Errorf("threads=4 reply differs from threads=1\ngot:  %+v\nwant: %+v", pooled, serial)
	}

	r, err := skewjoin.GenerateZipf(spec.N, spec.Zipf, spec.Seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := skewjoin.GenerateZipf(spec.N, spec.Zipf, spec.Seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := skewjoin.Join(skewjoin.GSH, r, s, &skewjoin.Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != serial.Matches || res.Checksum != serial.Checksum {
		t.Errorf("library call: summary (%d, %d), served (%d, %d)",
			res.Matches, res.Checksum, serial.Matches, serial.Checksum)
	}

	status, raw := doJSON(t, "POST", ts.URL+"/join", map[string]any{
		"r": "r", "s": "s", "algorithm": "gsh", "host_parallelism": 4,
	})
	if status != http.StatusBadRequest {
		t.Errorf("join with host_parallelism: status %d, want 400: %s", status, raw)
	}
}
