package ssj

import (
	"context"
	"testing"
	"time"

	"skewjoin/internal/oracle"
	"skewjoin/internal/relation"
	"skewjoin/internal/zipf"
)

// TestHotPathMatchesOracle is the hot-key path's differential test: the
// complete digest equals the oracle's across skew levels, thread counts
// and chunk sizes, and from zipf 1.0 on the R sample marks hot keys, so
// the slot arrays carry the heavy hitters.
func TestHotPathMatchesOracle(t *testing.T) {
	for _, theta := range []float64{0, 0.5, 1.0, 1.3} {
		r, s := genPair(t, 12000, theta, 17)
		want := oracle.Expected(r, s)
		for _, threads := range []int{1, 2, 4} {
			for _, chunk := range []int{128, 4096} {
				res := Join(r, s, Config{Threads: threads, ChunkSize: chunk})
				if res.Canceled || res.Summary != want || res.Stats.Staged != want.Count {
					t.Fatalf("theta=%v threads=%d chunk=%d: summary %+v (staged %d, canceled %v), want %+v",
						theta, threads, chunk, res.Summary, res.Stats.Staged, res.Canceled, want)
				}
				if theta >= 1 && (res.Stats.HotKeys == 0 || res.Stats.HotTuples == 0) {
					t.Fatalf("theta=%v: no hot keys detected: %+v", theta, res.Stats)
				}
			}
		}
	}
}

// tuplesOf builds a relation from keys, with the tuple index as payload.
func tuplesOf(keys []relation.Key) relation.Relation {
	rel := relation.New(len(keys))
	for i, k := range keys {
		rel.Tuples[i] = relation.Tuple{Key: k, Payload: relation.Payload(i)}
	}
	return rel
}

// TestHotPathShapes covers the hot-set shapes the zipf sweep does not:
// a key hot only in S (R's sample cannot see it, so it stays on the
// lanes) next to a key hot only in R (a slot with no S partner), every
// key hot, and no key hot.
func TestHotPathShapes(t *testing.T) {
	const n = 6000
	var sOnlyR, sOnlyS, uniqR, uniqS []relation.Key
	for i := 0; i < n; i++ {
		sOnlyR = append(sOnlyR, relation.Key(i))
		uniqR = append(uniqR, relation.Key(i))
		uniqS = append(uniqS, relation.Key(n-1-i))
		if i%3 == 0 {
			sOnlyS = append(sOnlyS, 7) // hot in S, once in R
		} else {
			sOnlyS = append(sOnlyS, relation.Key(i))
		}
	}
	for i := 0; i < 600; i++ {
		sOnlyR = append(sOnlyR, 1<<30) // hot in R, absent from S
	}
	all4 := zipf.MustNew(zipf.Config{Theta: 0.5, Universe: 4, Seed: 3})

	cases := []struct {
		name               string
		r, s               relation.Relation
		hotKeys, hotTuples int
	}{
		{"hot only in S", tuplesOf(sOnlyR), tuplesOf(sOnlyS), 1, 600},
		{"every key hot", all4.NewRelation(n, 1), all4.NewRelation(n, 2), 4, 2 * n},
		{"empty hot set", tuplesOf(uniqR), tuplesOf(uniqS), 0, 0},
	}
	for _, tc := range cases {
		want := oracle.Expected(tc.r, tc.s)
		for _, threads := range []int{1, 3} {
			for _, chunk := range []int{1, 64, 4096} {
				res := Join(tc.r, tc.s, Config{Threads: threads, ChunkSize: chunk})
				if res.Summary != want {
					t.Fatalf("%s threads=%d chunk=%d: summary %+v, want %+v", tc.name, threads, chunk, res.Summary, want)
				}
				if res.Stats.HotKeys != tc.hotKeys || res.Stats.HotTuples != tc.hotTuples {
					t.Fatalf("%s: %d hot keys, %d hot tuples, want %d and %d",
						tc.name, res.Stats.HotKeys, res.Stats.HotTuples, tc.hotKeys, tc.hotTuples)
				}
			}
		}
	}
}

// TestHotCancelBounded cancels a full n=2^18, zipf-1.0 run mid-stream and
// requires Join to return within 50ms of the cancel: workers poll after
// every hot-key run, so a long hot array cannot hold them.
func TestHotCancelBounded(t *testing.T) {
	r, s := genPair(t, 1<<18, 1.0, 42)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelled := make(chan time.Time, 1)
	timer := time.AfterFunc(20*time.Millisecond, func() {
		cancelled <- time.Now()
		cancel()
	})
	defer timer.Stop()
	res := Join(r, s, Config{Threads: 2, Ctx: ctx})
	returned := time.Now()
	if !res.Canceled {
		t.Fatal("run finished before the cancel; it no longer exercises mid-stream cancellation")
	}
	at := <-cancelled
	if lat := returned.Sub(at); lat > 50*time.Millisecond {
		t.Fatalf("Join returned %v after the cancel, want ≤ 50ms", lat)
	}
}

// FuzzSSJHot is a differential fuzz target for the hot-key path: small
// relations over a tiny key universe, so the R sample marks hot keys
// whenever the input is long enough, joined on 1–4 threads with 1–64
// tuple chunks and compared with the oracle. Each input byte b adds
// 1 + b>>3 tuples of key b&7; the first half of data builds R.
func FuzzSSJHot(f *testing.F) {
	f.Add([]byte{0xff, 0xf8, 0xff, 0x81, 0xff, 0x07, 0xff, 0xf9, 0xff, 0x10, 0xf8, 0xff, 0x7f, 0xff, 0xf9, 0x07}, uint8(1), uint8(7))
	f.Add([]byte{0xf8, 0xf8, 0xf8, 0xf8, 0xf8, 0xf8, 0xf8, 0xf8, 0xf8, 0xf8}, uint8(3), uint8(63))
	f.Add([]byte{0x01, 0x02, 0x03}, uint8(0), uint8(0))
	f.Add([]byte{}, uint8(2), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, threads, chunk uint8) {
		build := func(bs []byte) relation.Relation {
			var keys []relation.Key
			for _, b := range bs {
				for i := 0; i <= int(b>>3); i++ {
					keys = append(keys, relation.Key(b&7))
				}
			}
			return tuplesOf(keys)
		}
		r, s := build(data[:len(data)/2]), build(data[len(data)/2:])
		cfg := Config{Threads: 1 + int(threads%4), ChunkSize: 1 + int(chunk%64)}
		if got, want := Join(r, s, cfg).Summary, oracle.Expected(r, s); got != want {
			t.Fatalf("threads=%d chunk=%d |R|=%d |S|=%d: summary %+v, want %+v",
				cfg.Threads, cfg.ChunkSize, r.Len(), s.Len(), got, want)
		}
	})
}
