package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"skewjoin"
	"skewjoin/internal/cluster"
	"skewjoin/internal/service"
)

// listener is one in-process HTTP server on a loopback port.
type listener struct {
	srv  *http.Server
	url  string
	done chan error
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &listener{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

// close shuts the server down and waits for its Serve loop to return.
func (l *listener) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := l.srv.Shutdown(ctx)
	if serveErr := <-l.done; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	return err
}

// inputs are the oracle answers for one seed's relation pairs, computed
// once, outside the timed set-up.
type inputs struct {
	pairs []answer
}

// answer is one pair's ground truth.
type answer struct {
	want skewjoin.Summary
	top  []service.KeyWeight // exact top-k of freqR(k)·freqS(k)
}

// generate builds pair i of the run's inputs. Each pair has its own
// generator seed, derived from the run's seed.
func generate(w workload, seed int64, i int) (skewjoin.Relation, skewjoin.Relation, error) {
	return skewjoin.GenerateZipfPair(w.n, w.zipf, seed*int64(w.pairs)+int64(i))
}

func newInputs(w workload, seed int64) (*inputs, error) {
	in := &inputs{}
	for i := 0; i < w.pairs; i++ {
		r, s, err := generate(w, seed, i)
		if err != nil {
			return nil, err
		}
		in.pairs = append(in.pairs, answer{want: skewjoin.Expected(r, s), top: exactTop(r, s, topK)})
	}
	return in, nil
}

// fixture is a running system under test: one service.Server, or a
// cluster.Router over in-process shards, each on its own loopback port.
type fixture struct {
	w      workload
	shards []*service.Server // the single node is shard 0
	lns    []*listener       // shard listeners, then the router's
	front  string            // base URL the clients call
	router *http.Client      // the router's client to the shards
	hc     *http.Client      // the benchmark clients' connection pool
	bodies [][]byte          // the /join request of each pair

	setup setupTimes
}

// setupTimes is one set-up's cost: everything before the first timed
// request, excluding the benchmark's own oracle work.
type setupTimes struct {
	total, register, warmup time.Duration
	// fragments is the union of the warm-up joins' extract and register
	// calls (the router's hot-key fragment shipping); traced runs only.
	fragments time.Duration
}

// newFixture starts the servers, registers every relation pair through
// POST /relations and runs one warm-up join per pair. rc, when non-nil,
// wraps every handler and the router's shard client in timing spans.
func newFixture(w workload, seed int64, in *inputs, rc *recorder) (*fixture, error) {
	start := time.Now()
	f := &fixture{w: w}
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConnsPerHost = w.clients
	transport.MaxConnsPerHost = w.clients
	f.hc = &http.Client{Transport: transport}
	for i := 0; i < w.pairs; i++ {
		f.bodies = append(f.bodies, joinBody(w, i))
	}
	if err := f.start(rc); err != nil {
		f.close()
		return nil, err
	}

	regStart := time.Now()
	for i := 0; i < w.pairs; i++ {
		r, s, err := generate(w, seed, i)
		if err == nil {
			err = f.register(fmt.Sprintf("r%d", i), r)
		}
		if err == nil {
			err = f.register(fmt.Sprintf("s%d", i), s)
		}
		if err != nil {
			f.close()
			return nil, err
		}
	}
	f.setup.register = time.Since(regStart)

	warmStart := time.Now()
	var lo int64
	if rc != nil {
		lo = rc.now()
	}
	for i := 0; i < w.pairs; i++ {
		resp, out := f.join(context.Background(), int64(i))
		if out.failed() {
			f.close()
			return nil, fmt.Errorf("warm-up join %d: %v", i, outcomeErr(out))
		}
		if err := verify(w, in.pairs[i], resp); err != nil {
			f.close()
			return nil, fmt.Errorf("warm-up join %d: %w", i, err)
		}
	}
	f.setup.warmup = time.Since(warmStart)
	f.setup.total = time.Since(start)
	if rc != nil {
		f.setup.fragments = fragmentShipping(rc, lo, rc.now())
	}
	return f, nil
}

func (f *fixture) start(rc *recorder) error {
	wrap := func(name string, shard int, h http.Handler) http.Handler {
		if rc == nil {
			return h
		}
		return rc.wrap(name, shard, h)
	}
	if f.w.shards == 0 {
		srv := service.New(service.Config{})
		f.shards = []*service.Server{srv}
		l, err := listen(wrap("service", 0, srv))
		if err != nil {
			return err
		}
		f.lns = append(f.lns, l)
		f.front = l.url
		return nil
	}
	var urls []string
	shardOf := make(map[string]int)
	for i := 0; i < f.w.shards; i++ {
		srv := service.New(service.Config{ThreadBudget: f.w.shardBudget})
		l, err := listen(wrap("service", i, srv))
		if err != nil {
			return err
		}
		f.shards = append(f.shards, srv)
		f.lns = append(f.lns, l)
		urls = append(urls, l.url)
		shardOf[l.url[len("http://"):]] = i
	}
	// The router gets its own pool, configured like the daemon's default
	// client, so the benchmark clients' connections do not share it.
	var rt http.RoundTripper = http.DefaultTransport.(*http.Transport).Clone()
	if rc != nil {
		rt = &timedTransport{rc: rc, base: rt, shardOf: shardOf}
	}
	f.router = &http.Client{Transport: rt}
	router, err := cluster.NewRouter(cluster.Config{ShardURLs: urls, HTTPClient: f.router})
	if err != nil {
		return err
	}
	l, err := listen(wrap("router", -1, router))
	if err != nil {
		return err
	}
	f.lns = append(f.lns, l)
	f.front = l.url
	return nil
}

// close stops every server, router first, and drops idle connections.
func (f *fixture) close() {
	for i := len(f.lns) - 1; i >= 0; i-- {
		if err := f.lns[i].close(); err != nil {
			logf("closing server: %v", err)
		}
	}
	f.hc.CloseIdleConnections()
	if f.router != nil {
		f.router.CloseIdleConnections()
	}
}

func (f *fixture) register(name string, rel skewjoin.Relation) error {
	var buf bytes.Buffer
	if _, err := rel.WriteTo(&buf); err != nil {
		return fmt.Errorf("encode %s: %w", name, err)
	}
	body, err := json.Marshal(service.RegisterRequest{Name: name, Data: base64.StdEncoding.EncodeToString(buf.Bytes())})
	if err != nil {
		return err
	}
	resp, err := f.hc.Post(f.front+"/relations", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("register %s: %w", name, err)
	}
	defer resp.Body.Close()
	msg, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("register %s: %w", name, err)
	}
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("register %s: status %d: %s", name, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return nil
}

// joinURL is the workload's /join endpoint.
func (f *fixture) joinURL() string {
	if f.w.limit > 0 {
		return fmt.Sprintf("%s/join?limit=%d", f.front, f.w.limit)
	}
	return f.front + "/join"
}

// joinBody is the workload's request against pair i.
func joinBody(w workload, i int) []byte {
	req := service.JoinRequest{R: fmt.Sprintf("r%d", i), S: fmt.Sprintf("s%d", i), Consumer: w.consumer}
	if w.consumer == "topk" {
		req.K = topK
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a fixed struct of strings and ints always marshals
	}
	return body
}

// pairOf is the relation pair request id runs against: the pairs take
// turns, so every pair sees the same share of the traffic.
func (f *fixture) pairOf(id int64) int { return int(id % int64(f.w.pairs)) }

// reply is the part of a /join response the benchmark checks. The router
// answers in the same shape plus its cluster breakdown.
type reply = cluster.JoinResponse

// join sends request id's /join and reads the reply.
func (f *fixture) join(ctx context.Context, id int64) (*reply, outcome) {
	req, err := http.NewRequestWithContext(ctx, "POST", f.joinURL(), bytes.NewReader(f.bodies[f.pairOf(id)]))
	if err != nil {
		return nil, outcome{transport: err}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(reqHeader, fmt.Sprint(id))
	resp, err := f.hc.Do(req)
	if err != nil {
		return nil, outcome{transport: err}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, outcome{status: resp.StatusCode, transport: err}
	}
	if resp.StatusCode != http.StatusOK {
		return nil, outcome{status: resp.StatusCode, detail: string(bytes.TrimSpace(raw))}
	}
	var out reply
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, outcome{status: resp.StatusCode, transport: fmt.Errorf("decode reply: %w", err)}
	}
	return &out, outcome{status: resp.StatusCode}
}

// fetchJSON GETs path from the front server into out.
func (f *fixture) fetchJSON(path string, out any) error {
	resp, err := f.hc.Get(f.front + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// rejected reads the admission shed counters: the single node's, or the
// router's plus every shard's.
func (f *fixture) rejected() (uint64, error) {
	if f.w.shards == 0 {
		var st service.StatsResponse
		if err := f.fetchJSON("/stats", &st); err != nil {
			return 0, err
		}
		return st.Admission.Rejected, nil
	}
	var st cluster.StatsResponse
	if err := f.fetchJSON("/cluster/stats", &st); err != nil {
		return 0, err
	}
	n := st.Shed
	for _, sh := range st.Shards {
		if sh.Stats == nil {
			return 0, fmt.Errorf("shard %d stats: %s", sh.Shard, sh.Error)
		}
		n += sh.Stats.Admission.Rejected
	}
	return n, nil
}

func outcomeErr(o outcome) error {
	switch {
	case o.transport != nil:
		return o.transport
	case o.verify != nil:
		return o.verify
	case o.status/100 != 2:
		return fmt.Errorf("status %d: %s", o.status, o.detail)
	}
	return nil
}

// fragmentShipping is the union of the router's extract and register
// calls to shards in [lo, hi).
func fragmentShipping(rc *recorder, lo, hi int64) time.Duration {
	rc.mu.Lock()
	var ivs []interval
	for _, sp := range between(rc.spans, lo, hi) {
		if sp.Name == "shard_call" && sp.Path != "/join" {
			ivs = append(ivs, sp.interval())
		}
	}
	rc.mu.Unlock()
	return time.Duration(unionLen(ivs))
}
