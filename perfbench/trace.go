package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"skewjoin/internal/service"
)

// reqHeader carries the client's request id. The service middleware reads
// it; the router forwards no headers, so shard-side spans are linked to
// their router span by time nesting instead (the fleet runs one client).
const reqHeader = "X-Perfbench-Req"

// span is one timed section at a layer boundary. Times are nanoseconds
// since the recorder's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`   // client, router, service, shard_call
	Req    int64  `json:"req"`    // client request id; 0 where the hop forwards none
	Shard  int    `json:"shard"`  // shard index, -1 off the fleet
	Path   string `json:"path"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Status int    `json:"status"`
	Bytes  int64  `json:"bytes"`

	// join is the decoded /join exchange of a service span.
	join *joinExchange
}

func (s *span) interval() interval { return interval{s.Start, s.End} }
func (s *span) ms() float64        { return float64(s.End-s.Start) / 1e6 }

// joinExchange is one service /join call as the shard saw it: the request
// and the reply, with the reply's groups folded into a digest so a trace
// holds no per-key payloads.
type joinExchange struct {
	req          service.JoinRequest
	resp         service.JoinResponse
	groupsDigest uint64
}

// groupsDigest hashes exact per-key counts in ascending key order, the
// order the service emits them in.
func groupsDigest(groups []service.KeyWeight) uint64 {
	h := fnv.New64a()
	var buf [12]byte
	for _, g := range groups {
		binary.LittleEndian.PutUint32(buf[0:4], g.Key)
		binary.LittleEndian.PutUint64(buf[4:12], g.Weight)
		h.Write(buf[:]) //skewlint:ignore err-drop -- hash.Hash writes never fail
	}
	return h.Sum64()
}

// capture is a /join exchange waiting to be decoded off the request path.
type capture struct {
	sp        *span
	req, resp []byte
}

// recorder keeps spans in memory while recording is on. Decoding captured
// /join bodies happens on one background goroutine, so the JSON work does
// not sit inside any span a layer is charged for.
type recorder struct {
	epoch time.Time
	on    atomic.Bool

	mu    sync.Mutex
	spans []*span //skewlint:guarded-by mu

	pending chan capture
	done    chan struct{}
}

func newRecorder() *recorder {
	rc := &recorder{
		epoch: time.Now(),
		// Sized to the most /join exchanges one fleet request produces
		// (two calls on each of three shards) times a few requests, so
		// the decoder lagging briefly never blocks a handler.
		pending: make(chan capture, 64),
		done:    make(chan struct{}),
	}
	go func() {
		defer close(rc.done)
		rc.decode()
	}()
	return rc
}

func (rc *recorder) now() int64 { return int64(time.Since(rc.epoch)) }

func (rc *recorder) add(sp *span) {
	rc.mu.Lock()
	sp.ID = len(rc.spans) + 1
	rc.spans = append(rc.spans, sp)
	rc.mu.Unlock()
}

func (rc *recorder) decode() {
	for c := range rc.pending {
		ex := &joinExchange{}
		if json.Unmarshal(c.req, &ex.req) != nil {
			continue
		}
		if c.sp.Status == http.StatusOK && json.Unmarshal(c.resp, &ex.resp) == nil {
			ex.groupsDigest = groupsDigest(ex.resp.Groups)
			ex.resp.Groups = nil
		}
		c.sp.join = ex
	}
}

// stop ends recording and waits for the decoder to drain. The spans are
// safe to read once it returns.
func (rc *recorder) stop() []*span {
	rc.on.Store(false)
	close(rc.pending)
	<-rc.done
	return rc.all()
}

// all returns the spans recorded so far.
func (rc *recorder) all() []*span {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.spans
}

// between returns the spans that started inside [lo, hi).
func between(spans []*span, lo, hi int64) []*span {
	var out []*span
	for _, sp := range spans {
		if sp.Start >= lo && sp.Start < hi {
			out = append(out, sp)
		}
	}
	return out
}

// writeSpans writes one JSON span per line to path.
func writeSpans(path string, spans []*span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close() //skewlint:ignore err-drop -- the encode error is the one reported
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close() //skewlint:ignore err-drop -- the flush error is the one reported
		return err
	}
	return f.Close()
}

// wrap times every request through h as a span called name. Service
// spans of /join also capture both bodies for decoding.
func (rc *recorder) wrap(name string, shard int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !rc.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		sp := &span{Name: name, Shard: shard, Path: r.URL.Path, Start: rc.now()}
		if id, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64); err == nil {
			sp.Req = id
		}
		keep := name == "service" && r.URL.Path == "/join"
		var reqBody []byte
		if keep {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, fmt.Sprintf("read request: %v", err), http.StatusBadRequest)
				return
			}
			reqBody = body
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		cw := &countingWriter{ResponseWriter: w, status: http.StatusOK, keep: keep}
		h.ServeHTTP(cw, r)
		sp.End = rc.now()
		sp.Status, sp.Bytes = cw.status, cw.n
		rc.add(sp)
		if keep {
			rc.pending <- capture{sp: sp, req: reqBody, resp: cw.buf.Bytes()}
		}
	})
}

// countingWriter counts (and optionally keeps) the response bytes.
type countingWriter struct {
	http.ResponseWriter
	status int
	n      int64
	keep   bool
	buf    bytes.Buffer
}

func (cw *countingWriter) WriteHeader(status int) {
	cw.status = status
	cw.ResponseWriter.WriteHeader(status)
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.ResponseWriter.Write(p)
	cw.n += int64(n)
	if cw.keep {
		cw.buf.Write(p[:n]) //skewlint:ignore err-drop -- bytes.Buffer writes never fail
	}
	return n, err
}

// timedTransport records each router→shard HTTP call as a shard_call span,
// from the request leaving until its response body is read to the end.
type timedTransport struct {
	rc      *recorder
	base    http.RoundTripper
	shardOf map[string]int // host:port → shard index
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.rc.on.Load() {
		return t.base.RoundTrip(req)
	}
	shard, ok := t.shardOf[req.URL.Host]
	if !ok {
		shard = -1
	}
	sp := &span{Name: "shard_call", Shard: shard, Path: req.URL.Path, Start: t.rc.now()}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		sp.End = t.rc.now()
		t.rc.add(sp)
		return nil, err
	}
	sp.Status = resp.StatusCode
	resp.Body = &timedBody{ReadCloser: resp.Body, sp: sp, rc: t.rc}
	return resp, nil
}

// timedBody ends its call span at the body's EOF (or Close, whichever
// comes first), so the caller's decoding of the body stays outside it.
type timedBody struct {
	io.ReadCloser
	sp   *span
	rc   *recorder
	once sync.Once
}

func (b *timedBody) finish() {
	b.once.Do(func() {
		b.sp.End = b.rc.now()
		b.rc.add(b.sp)
	})
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.sp.Bytes += int64(n)
	if errors.Is(err, io.EOF) {
		b.finish()
	}
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.finish()
	return err
}
