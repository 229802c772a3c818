package main

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"time"

	"skewjoin"
	"skewjoin/internal/outbuf"
	"skewjoin/internal/relation"
	"skewjoin/internal/service"
	"skewjoin/internal/volcano"
)

// queuedMS is the admission wait above which a request counts as queued:
// an immediate grant takes microseconds, a queued one waits for another
// join to finish.
const queuedMS = 0.1

// reqLayers is one traced request split by layer. Sums run over every
// join the request caused (one on a single node, one per shard call in
// the fleet), so a fleet figure is work summed over shards.
type reqLayers struct {
	clientMS, frontMS float64 // client round trip; service or router handler span
	waitMS            float64 // admission wait at the front

	partition, nm, build, probe         float64
	tasks, splitTasks, maxChain, visits float64
	sample, skewPartition               float64
	streamPhase, joinSelf               float64
	serviceSelf, serviceBytes           float64

	firstResult, limitMS, chunks, staged float64

	joins, skewDetected, streaming int

	// fleet only
	routerSelf, calls, hotKeys, frag, retries          float64
	callMS, shardWait, shardJoin, transport, callBytes float64
	imbalance                                          float64
}

// addJoin folds one service /join handler span into the request.
func (l *reqLayers) addJoin(sp *span) error {
	if sp.join == nil || sp.Status != http.StatusOK {
		return fmt.Errorf("service span %d (%s, status %d) has no decoded join", sp.ID, sp.Path, sp.Status)
	}
	r := sp.join.resp
	phases := 0.0
	for _, p := range r.Phases {
		phases += p.MS
		switch r.Algorithm + "/" + p.Name {
		case "cbase/partition":
			l.partition += p.MS
		case "cbase/join", "csh/nmjoin":
			l.nm += p.MS
		case "csh/sample":
			l.sample += p.MS
		case "csh/partition":
			l.skewPartition += p.MS
		case "ssj/stream":
			l.streamPhase += p.MS
		}
	}
	l.joinSelf += r.JoinMS - phases
	l.serviceSelf += sp.ms() - r.WaitMS - r.JoinMS
	l.serviceBytes += float64(sp.Bytes)
	if jp := r.JoinPhase; jp != nil && r.Algorithm != string(skewjoin.SSJ) {
		l.build += jp.BuildMS
		l.probe += jp.ProbeMS
		l.tasks += float64(jp.Tasks)
		l.splitTasks += float64(jp.SplitTasks)
		l.visits += float64(jp.ProbeVisits)
		l.maxChain = math.Max(l.maxChain, float64(jp.MaxChain))
	}
	if st := r.Stream; st != nil {
		l.firstResult += st.FirstResultMS
		l.limitMS += st.LimitMS
		l.chunks += float64(st.Chunks)
		l.staged += float64(st.Staged)
	}
	l.joins++
	if p := r.Planner; p != nil {
		if p.SkewDetected {
			l.skewDetected++
		}
		if p.Streaming {
			l.streaming++
		}
	}
	return nil
}

// traced links a traced window's spans into per-request layer records.
// On a single node the service span carries the client's request id. In
// the fleet the router span does, and the shard calls and shard handler
// spans nest inside it in time (one client, so nothing else runs then).
func traced(w workload, win *window, spans []*span, rc *recorder) ([]reqLayers, [][]*span, error) {
	byReq := make(map[int64]*span)
	var calls, shardSvc []*span
	for _, sp := range spans {
		switch {
		case sp.Name == "shard_call" && sp.Path == "/join":
			calls = append(calls, sp)
		case sp.Name == "service" && w.shards > 0 && sp.Path == "/join":
			shardSvc = append(shardSvc, sp)
		case sp.Req != 0 && sp.Path == "/join":
			byReq[sp.Req] = sp
		}
	}
	var out []reqLayers
	var joinsPerReq [][]*span
	for _, s := range win.samples {
		if s.out.failed() {
			continue
		}
		front, ok := byReq[s.id]
		if !ok {
			return nil, nil, fmt.Errorf("request %d: no handler span", s.id)
		}
		cs := &span{Name: "client", Req: s.id, Shard: -1, Path: "/join",
			Start: int64(s.start.Sub(rc.epoch)), End: int64(s.end.Sub(rc.epoch)), Status: s.out.status}
		rc.add(cs)
		front.Parent = cs.ID
		l := reqLayers{clientMS: s.ms(), frontMS: front.ms(), waitMS: s.resp.WaitMS}
		var joins []*span
		if w.shards == 0 {
			joins = []*span{front}
		} else {
			mine := between(calls, front.Start, front.End)
			var ivs []interval
			for _, c := range mine {
				c.Parent = front.ID
				ivs = append(ivs, c.interval())
				l.callMS += c.ms()
				l.callBytes += float64(c.Bytes)
				inner := innermost(shardSvc, c)
				if inner == nil || inner.join == nil {
					return nil, nil, fmt.Errorf("request %d: shard %d call has no decoded handler span", s.id, c.Shard)
				}
				inner.Parent = c.ID
				if inner.Status != http.StatusOK {
					continue // an attempt the router retried; router.retries counts it
				}
				joins = append(joins, inner)
				r := inner.join.resp
				l.shardWait += r.WaitMS
				l.shardJoin += r.JoinMS
				l.transport += c.ms() - r.WaitMS - r.JoinMS
			}
			l.routerSelf = float64(selfTime(front.interval(), ivs)) / 1e6
			l.calls = float64(len(mine))
			info := s.resp.Cluster
			if info == nil {
				return nil, nil, fmt.Errorf("request %d: router reply has no cluster breakdown", s.id)
			}
			l.hotKeys = float64(len(info.HotKeys))
			if info.Policy == "frag" {
				l.frag = 1
			}
			expected, lo, hi := 0, math.Inf(1), 0.0
			for _, sh := range info.Shards {
				expected += sh.Calls
				lo, hi = math.Min(lo, sh.JoinMS), math.Max(hi, sh.JoinMS)
			}
			l.retries = float64(len(mine) - expected)
			if lo > 0 {
				l.imbalance = hi / lo
			}
		}
		for _, j := range joins {
			if err := l.addJoin(j); err != nil {
				return nil, nil, fmt.Errorf("request %d: %w", s.id, err)
			}
		}
		out = append(out, l)
		joinsPerReq = append(joinsPerReq, joins)
	}
	if len(out) == 0 {
		return nil, nil, fmt.Errorf("no verified traced requests")
	}
	return out, joinsPerReq, nil
}

// innermost finds the shard handler span nested in a shard call.
func innermost(svc []*span, call *span) *span {
	for _, sp := range svc {
		if sp.Shard == call.Shard && sp.Start >= call.Start && sp.End <= call.End {
			return sp
		}
	}
	return nil
}

// consumeStats is the volcano sink's work in replayed shard joins.
type consumeStats struct {
	busy            time.Duration
	batches, tuples int64
}

func (c *consumeStats) add(o consumeStats) {
	c.busy += o.busy
	c.batches += o.batches
	c.tuples += o.tuples
}

// replay re-runs captured shard joins in-process through skewjoin.Join on
// the shard's own catalog relations, with the exact groups consumer the
// service attaches wrapped in a timing callback. The digests must equal
// the shard's answer. It replays whole requests until budget is spent
// (at least one) and returns per-request sink costs.
func replay(f *fixture, reqs [][]*span, budget time.Duration) ([]consumeStats, error) {
	start := time.Now()
	var out []consumeStats
	for _, joins := range reqs {
		if len(out) > 0 && time.Since(start) > budget {
			break
		}
		var cs consumeStats
		for _, sp := range joins {
			one, err := replayJoin(f, sp)
			if err != nil {
				return nil, err
			}
			cs.add(one)
		}
		out = append(out, cs)
	}
	return out, nil
}

func replayJoin(f *fixture, sp *span) (consumeStats, error) {
	ex := sp.join
	cat := f.shards[sp.Shard].Catalog()
	rEntry, okR := cat.Get(ex.req.R)
	sEntry, okS := cat.Get(ex.req.S)
	if !okR || !okS {
		return consumeStats{}, fmt.Errorf("replay: shard %d lacks %q or %q", sp.Shard, ex.req.R, ex.req.S)
	}
	r, s := rEntry.Rel, sEntry.Rel
	if len(ex.req.ExcludeKeys) > 0 {
		drop := make(map[relation.Key]bool, len(ex.req.ExcludeKeys))
		for _, k := range ex.req.ExcludeKeys {
			drop[relation.Key(k)] = true
		}
		r, s = without(r, drop), without(s, drop)
	}
	one := func(outbuf.Result) uint64 { return 1 }
	root := volcano.NewGroupSum(one)
	factory, collect := volcano.Sink(root, func() volcano.Consumer { return volcano.NewGroupSum(one) })
	var counters []*consumeStats
	timed := func(worker int) skewjoin.ResultConsumer {
		inner := factory(worker)
		c := &consumeStats{}
		counters = append(counters, c)
		return func(batch []skewjoin.JoinResult) {
			t := time.Now()
			inner(batch)
			c.busy += time.Since(t)
			c.batches++
			c.tuples += int64(len(batch))
		}
	}
	threads := f.w.shardBudget
	res, err := skewjoin.Join(skewjoin.Algorithm(ex.resp.Algorithm), r, s, &skewjoin.Options{Threads: threads, Consumer: timed})
	if err != nil {
		return consumeStats{}, fmt.Errorf("replay on shard %d: %w", sp.Shard, err)
	}
	collect()
	keys := make([]relation.Key, 0, len(root.Groups))
	for k := range root.Groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	groups := make([]service.KeyWeight, 0, len(keys))
	for _, k := range keys {
		groups = append(groups, service.KeyWeight{Key: uint32(k), Weight: root.Groups[k]})
	}
	if res.Matches != ex.resp.Matches || res.Checksum != ex.resp.Checksum || groupsDigest(groups) != ex.groupsDigest {
		return consumeStats{}, fmt.Errorf("replay on shard %d of %s⋈%s disagrees with the shard's answer", sp.Shard, ex.req.R, ex.req.S)
	}
	var cs consumeStats
	for _, c := range counters {
		cs.add(*c)
	}
	return cs, nil
}

// without drops the tuples whose key is in drop, as the service does for
// a request's exclude_keys.
func without(rel skewjoin.Relation, drop map[relation.Key]bool) skewjoin.Relation {
	kept := make([]relation.Tuple, 0, len(rel.Tuples))
	for _, t := range rel.Tuples {
		if !drop[t.Key] {
			kept = append(kept, t)
		}
	}
	return skewjoin.Relation{Tuples: kept}
}

// recommendMicros times the planner's decision on the catalog's cached
// statistics for relation r, as the service calls it for an auto join.
func recommendMicros(f *fixture, limit int) (float64, error) {
	e, ok := f.shards[0].Catalog().Get("r0")
	if !ok {
		return 0, fmt.Errorf("planner timing: relation r0 not in shard 0's catalog")
	}
	cfg := skewjoin.PlannerConfig{Limit: limit}
	const batch = 100
	var perCall []float64
	var sink skewjoin.Recommendation
	for i := 0; i < 200; i++ {
		t := time.Now()
		for j := 0; j < batch; j++ {
			sink = skewjoin.RecommendFromStats(e.Stats, cfg)
		}
		perCall = append(perCall, float64(time.Since(t))/1e3/batch)
	}
	if sink.CPU == "" {
		return 0, fmt.Errorf("planner timing: empty recommendation")
	}
	return median(perCall), nil
}
