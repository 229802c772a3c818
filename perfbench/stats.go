package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie strictly beyond a percentile
// before the benchmark reports it: a tail percentile resting on fewer
// samples is one slow request, not a distribution.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs, which
// it sorts in place. It returns 0 for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	return xs[rank]
}

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// beyond counts the samples strictly greater than v.
func beyond(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// tailPercentile returns the q-quantile of xs and whether it may be
// reported: at least minTail samples must lie strictly beyond it.
func tailPercentile(xs []float64, q float64) (float64, bool) {
	p := percentile(xs, q)
	return p, beyond(xs, p) >= minTail
}

// interval is a closed time span in nanoseconds.
type interval struct{ lo, hi int64 }

// unionLen is the total length covered by the intervals, counting
// overlapping stretches once. It reorders ivs.
func unionLen(ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, iv := range ivs {
		if iv.hi <= iv.lo {
			continue
		}
		if open && iv.lo <= curHi {
			if iv.hi > curHi {
				curHi = iv.hi
			}
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = iv.lo, iv.hi, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
// Children may overlap one another (a router's concurrent shard calls);
// they are clipped to the parent and counted by their union.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.lo < parent.lo {
			c.lo = parent.lo
		}
		if c.hi > parent.hi {
			c.hi = parent.hi
		}
		clipped = append(clipped, c)
	}
	return (parent.hi - parent.lo) - unionLen(clipped)
}

// outcome is how one attempted request ended.
type outcome struct {
	status    int    // HTTP status; 0 when no response arrived
	transport error  // the request or the response body failed in transit
	verify    error  // the response arrived but disagreed with the oracle
	detail    string // a non-2xx reply's error body, for the log
}

// failed reports whether the outcome counts against error_rate: every
// non-2xx status (a 429 shed or a 504 timeout included), every transport
// error and every verification failure.
func (o outcome) failed() bool {
	return o.transport != nil || o.status/100 != 2 || o.verify != nil
}
