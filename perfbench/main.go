// Command perfbench is the repository's end-to-end benchmark. It starts
// the real join service (and, for the fleet workload, a cluster router in
// front of in-process shards) on loopback listeners, drives one workload
// as a closed loop, verifies every reply against the oracle, and prints
// its metrics as one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload uniform --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// runs the same workload with timing spans around every layer boundary
// and reports the per-layer metrics instead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"
)

// minVerified is the fewest verified requests an untraced window may end
// with: enough that latency_p90_ms has minTail samples beyond it.
const minVerified = 120

// setups is how many times a run sets the system up; setup_s is their
// median.
const setups = 3

// traceDir is where a traced run writes its spans: the build directory
// run.sh uses, which the repository ignores.
const traceDir = ".bench_build"

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	os.Exit(run())
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runInfo is printed just before the result: the host and inputs the
// numbers were measured on.
type runInfo struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	N          int     `json:"n"`
	Zipf       float64 `json:"zipf"`
	Clients    int     `json:"clients"`
	Shards     int     `json:"shards,omitempty"`
	Trace      int     `json:"trace"`
	Seconds    float64 `json:"seconds"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Setups     int     `json:"setups"`
	// Samples counts verified requests per window; TailSamples how many
	// lie beyond latency_p90_ms.
	Samples     map[string]int `json:"samples"`
	TailSamples int            `json:"tail_samples,omitempty"`
}

func run() int {
	var (
		name     = flag.String("workload", "", "workload to run: uniform, skewed, interactive or fleet")
		seed     = flag.Int64("seed", 1, "seed of the generated relations")
		seconds  = flag.Float64("seconds", runSeconds, "length of the measured part of the run")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics of a traced run")
		describe = flag.Bool("describe", false, "print the BENCHMARK.json these tables define and exit")
	)
	flag.Parse()
	if *describe {
		if err := writeDescription(os.Stdout); err != nil {
			logf("%v", err)
			return 1
		}
		return 0
	}
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		logf("usage: --workload uniform|skewed|interactive|fleet --seed N --seconds S --trace 0|1")
		return 2
	}
	res, info, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, traceDir)
	if err != nil {
		logf("%s: %v", w.name, err)
		return 1
	}
	info.Seconds = *seconds
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]runInfo{"perfbench": info}); err != nil {
		logf("%v", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		logf("%v", err)
		return 1
	}
	return 0
}

// measure sets the workload up, runs it, and assembles the result. A
// traced run writes its spans to spanDir unless it is empty.
func measure(w workload, seed int64, d time.Duration, traceOn bool, spanDir string) (*result, runInfo, error) {
	info := runInfo{
		Workload: w.name, Seed: seed, N: w.n, Zipf: w.zipf, Clients: w.clients, Shards: w.shards,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Setups: setups, Samples: map[string]int{},
	}
	if traceOn {
		info.Trace = 1
	}
	in, err := newInputs(w, seed)
	if err != nil {
		return nil, info, err
	}
	var rc *recorder
	if traceOn {
		rc = newRecorder()
		rc.on.Store(true)
	}
	var (
		fx   *fixture
		done []setupTimes
	)
	for i := 0; i < setups; i++ {
		if fx != nil {
			fx.close()
		}
		if fx, err = newFixture(w, seed, in, rc); err != nil {
			if rc != nil {
				rc.stop()
			}
			return nil, info, fmt.Errorf("set-up: %w", err)
		}
		done = append(done, fx.setup)
	}
	defer fx.close()
	setupS := median(collect(done, func(s setupTimes) float64 { return s.total.Seconds() }))

	var ids atomic.Int64
	if !traceOn {
		win, err := fx.drive(in, d, minVerified, &ids)
		if win == nil {
			return nil, info, err
		}
		res := newResult(win)
		if err != nil && res.Correct {
			return nil, info, err
		}
		lat := win.verified()
		info.Samples["untraced"] = len(lat)
		p90, _ := tailPercentile(lat, 0.9)
		info.TailSamples = beyond(lat, p90)
		verified := float64(len(lat))
		res.put("latency_p50_ms", median(lat))
		res.put("latency_p90_ms", p90)
		res.put("throughput_rps", verified/win.elapsed.Seconds())
		res.put("success_rate", verified/float64(len(win.samples)))
		res.put("cpu_ms_per_join", float64(win.cpu)/1e6/verified)
		res.put("peak_rss_mb", win.peakMB)
		res.put("setup_s", setupS)
		return res, info, nil
	}

	rc.on.Store(false)
	res, err := measureLayers(fx, in, d, rc, done, &ids, &info)
	if err != nil {
		return nil, info, err
	}
	if spanDir != "" {
		spans := rc.all()
		path := filepath.Join(spanDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
		if err := os.MkdirAll(spanDir, 0o755); err != nil {
			return nil, info, err
		}
		if err := writeSpans(path, spans); err != nil {
			return nil, info, fmt.Errorf("write spans: %w", err)
		}
	}
	return res, info, nil
}

// measureLayers is the traced run: an untraced window (the overhead
// baseline), a traced window, then direct calls into the layers the HTTP
// surface hides. The windows take 35% and 45% of d, the replay at most
// the remaining 20%.
func measureLayers(fx *fixture, in *inputs, d time.Duration, rc *recorder, done []setupTimes, ids *atomic.Int64, info *runInfo) (*result, error) {
	w := fx.w
	plain, err := fx.drive(in, d*35/100, 10, ids)
	if err != nil {
		return nil, fmt.Errorf("untraced window: %w", err)
	}
	rejected0, err := fx.rejected()
	if err != nil {
		return nil, err
	}
	rc.on.Store(true)
	lo := rc.now()
	win, err := fx.drive(in, d*45/100, 10, ids)
	hi := rc.now()
	rc.on.Store(false)
	if err != nil {
		return nil, fmt.Errorf("traced window: %w", err)
	}
	rejected1, err := fx.rejected()
	if err != nil {
		return nil, err
	}
	spans := rc.stop()
	ls, joins, err := traced(w, win, between(spans, lo, hi), rc)
	if err != nil {
		return nil, err
	}
	info.Samples["untraced"] = len(plain.verified())
	info.Samples["traced"] = len(ls)

	res := newResult(plain)
	traceRes := newResult(win)
	res.Attempted += traceRes.Attempted
	res.Failed += traceRes.Failed
	res.Correct = res.Correct && traceRes.Correct

	var consume []consumeStats
	if w.shards > 0 {
		if consume, err = replay(fx, joins, d*20/100); err != nil {
			logf("%v", err)
			res.Correct = false
		}
		info.Samples["replayed"] = len(consume)
	}
	recUS, err := recommendMicros(fx, w.limit)
	if err != nil {
		return nil, err
	}

	med := func(f func(reqLayers) float64) float64 { return median(collect(ls, f)) }
	frac := func(f func(reqLayers) float64) float64 { return mean(collect(ls, f)) }
	res.put("partition.ms", med(func(l reqLayers) float64 { return l.partition }))
	res.put("nm.ms", med(func(l reqLayers) float64 { return l.nm }))
	res.put("nm.build_ms", med(func(l reqLayers) float64 { return l.build }))
	res.put("nm.probe_ms", med(func(l reqLayers) float64 { return l.probe }))
	res.put("nm.tasks", med(func(l reqLayers) float64 { return l.tasks }))
	res.put("nm.split_tasks", med(func(l reqLayers) float64 { return l.splitTasks }))
	res.put("nm.max_chain", med(func(l reqLayers) float64 { return l.maxChain }))
	res.put("nm.probe_visits", med(func(l reqLayers) float64 { return l.visits }))
	res.put("skew.sample_ms", med(func(l reqLayers) float64 { return l.sample }))
	res.put("skew.partition_ms", med(func(l reqLayers) float64 { return l.skewPartition }))
	res.put("stream.phase_ms", med(func(l reqLayers) float64 { return l.streamPhase }))
	res.put("stream.first_result_ms", med(func(l reqLayers) float64 { return l.firstResult }))
	res.put("stream.limit_ms", med(func(l reqLayers) float64 { return l.limitMS }))
	res.put("stream.chunks", med(func(l reqLayers) float64 { return l.chunks }))
	overshoot := 0.0
	if w.limit > 0 {
		overshoot = med(func(l reqLayers) float64 { return l.staged }) / float64(w.limit)
	}
	res.put("stream.overshoot", overshoot)
	res.put("join.self_ms", med(func(l reqLayers) float64 { return l.joinSelf }))
	res.put("service.self_ms", med(func(l reqLayers) float64 { return l.serviceSelf }))
	res.put("service.response_bytes", med(func(l reqLayers) float64 { return l.serviceBytes }))
	res.put("planner.recommend_us", recUS)
	res.put("planner.skew_detected_frac", frac(func(l reqLayers) float64 { return float64(l.skewDetected) / float64(l.joins) }))
	res.put("planner.streaming_frac", frac(func(l reqLayers) float64 { return float64(l.streaming) / float64(l.joins) }))
	waits := collect(ls, func(l reqLayers) float64 { return l.waitMS })
	res.put("admission.wait_ms_p50", percentile(waits, 0.5))
	res.put("admission.wait_ms_p90", percentile(waits, 0.9))
	res.put("admission.queued_frac", frac(func(l reqLayers) float64 { return boolFloat(l.waitMS > queuedMS) }))
	res.put("admission.rejected", float64(rejected1-rejected0))
	busy := collect(consume, func(c consumeStats) float64 { return float64(c.busy) / 1e6 })
	var busyNs, tuples float64
	for _, c := range consume {
		busyNs += float64(c.busy)
		tuples += float64(c.tuples)
	}
	nsPerTuple := 0.0
	if tuples > 0 {
		nsPerTuple = busyNs / tuples
	}
	res.put("consume.busy_ms", median(busy))
	res.put("consume.batches", median(collect(consume, func(c consumeStats) float64 { return float64(c.batches) })))
	res.put("consume.tuples", median(collect(consume, func(c consumeStats) float64 { return float64(c.tuples) })))
	res.put("consume.ns_per_tuple", nsPerTuple)
	res.put("router.self_ms", med(func(l reqLayers) float64 { return l.routerSelf }))
	res.put("router.shard_calls", med(func(l reqLayers) float64 { return l.calls }))
	res.put("router.hot_keys", med(func(l reqLayers) float64 { return l.hotKeys }))
	res.put("router.frag_frac", frac(func(l reqLayers) float64 { return l.frag }))
	retries := 0.0
	for _, l := range ls {
		retries += l.retries
	}
	res.put("router.retries", retries)
	res.put("shard.call_ms", med(func(l reqLayers) float64 { return l.callMS }))
	res.put("shard.wait_ms", med(func(l reqLayers) float64 { return l.shardWait }))
	res.put("shard.join_ms", med(func(l reqLayers) float64 { return l.shardJoin }))
	res.put("shard.transport_ms", med(func(l reqLayers) float64 { return l.transport }))
	res.put("shard.response_bytes", med(func(l reqLayers) float64 { return l.callBytes }))
	res.put("shard.imbalance", med(func(l reqLayers) float64 { return l.imbalance }))
	res.put("setup.register_ms", median(collect(done, func(s setupTimes) float64 { return float64(s.register) / 1e6 })))
	res.put("setup.fragments_ms", median(collect(done, func(s setupTimes) float64 { return float64(s.fragments) / 1e6 })))
	res.put("setup.warmup_ms", median(collect(done, func(s setupTimes) float64 { return float64(s.warmup) / 1e6 })))
	res.put("gc.cycles_per_join", float64(plain.gcCycles)/float64(len(plain.verified())))
	res.put("trace.overhead_frac", median(win.verified())/median(plain.verified())-1)
	res.put("trace.unattributed_frac", med(func(l reqLayers) float64 { return (l.clientMS - l.frontMS) / l.clientMS }))
	return res, nil
}

func newResult(win *window) *result {
	res := &result{Correct: true, Attempted: len(win.samples), Metrics: map[string]value{}}
	for _, s := range win.samples {
		if s.out.failed() {
			res.Failed++
		}
		if s.out.verify != nil {
			res.Correct = false
		}
	}
	logged := 0
	for _, s := range win.samples {
		if err := outcomeErr(s.out); err != nil && logged < 5 {
			logf("request %d: %v", s.id, err)
			logged++
		}
	}
	return res
}

// put records a metric under its declared unit.
func (r *result) put(name string, v float64) {
	r.Metrics[name] = value{Value: v, Unit: unitOf(name)}
}

func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.name == name {
			return m.unit
		}
	}
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	panic("perfbench: undeclared metric " + name)
}

func collect[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func boolFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
