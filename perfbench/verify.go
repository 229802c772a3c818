package main

import (
	"fmt"
	"sort"

	"skewjoin"
	"skewjoin/internal/service"
)

// exactTop is the oracle for a top-k join consumer: the k keys with the
// largest output count freqR(k)·freqS(k), heaviest first, ascending key on
// ties.
func exactTop(r, s skewjoin.Relation, k int) []service.KeyWeight {
	fr := make(map[uint32]uint64)
	for _, t := range r.Tuples {
		fr[uint32(t.Key)]++
	}
	fs := make(map[uint32]uint64)
	for _, t := range s.Tuples {
		fs[uint32(t.Key)]++
	}
	var all []service.KeyWeight
	for key, n := range fr {
		if m := fs[key]; m > 0 {
			all = append(all, service.KeyWeight{Key: key, Weight: n * m})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Weight != all[j].Weight {
			return all[i].Weight > all[j].Weight
		}
		return all[i].Key < all[j].Key
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// verify checks one reply against the oracle.
//   - A full join must match the exact digest.
//   - A limited join must report the limit hit, with at least limit and
//     at most the full join's matches.
//   - A top-k join must also return the exact top-k: the router merges
//     exact per-shard group counts, so there is no sketch error to allow.
func verify(w workload, a answer, got *reply) error {
	if w.limit > 0 {
		if got.Stream == nil || !got.Stream.LimitHit {
			return fmt.Errorf("limit %d: stream.limit_hit not reported", w.limit)
		}
		if got.Matches < uint64(w.limit) || got.Matches > a.want.Matches {
			return fmt.Errorf("limit %d: %d matches, want between %d and %d", w.limit, got.Matches, w.limit, a.want.Matches)
		}
		return nil
	}
	if got.Matches != a.want.Matches || got.Checksum != a.want.Checksum {
		return fmt.Errorf("digest (%d, %#x), want (%d, %#x)", got.Matches, got.Checksum, a.want.Matches, a.want.Checksum)
	}
	if w.consumer != "topk" {
		return nil
	}
	if len(got.TopKeys) != len(a.top) {
		return fmt.Errorf("top-%d: got %d keys, want %d", topK, len(got.TopKeys), len(a.top))
	}
	for i, kw := range a.top {
		if got.TopKeys[i] != kw {
			return fmt.Errorf("top-%d entry %d: got %+v, want %+v", topK, i, got.TopKeys[i], kw)
		}
	}
	return nil
}
