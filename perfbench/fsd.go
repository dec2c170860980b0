package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"falseshare/internal/artifact"
	"falseshare/internal/core"
	"falseshare/internal/experiments"
	"falseshare/internal/serve"
	"falseshare/internal/sim/cache"
	"falseshare/internal/workload/gen"
)

const (
	// defaultCorpusSeed is the corpus the committed response digests
	// cover.
	defaultCorpusSeed = 1
	// corpusSize programs × len(fsdNprocs) × len(fsdEndpoints) is the
	// request universe, the distinct requests with committed result
	// digests.
	corpusSize = 192
	// passRequests is the number of requests in one pass.
	passRequests = 120
	// repeatShare is the fixed share of requests that repeat an
	// earlier body, so the response cache serves them. It, the equal
	// weight of the fsdEndpoints entries and the fsdNprocs set are
	// assumptions: no fsd traffic has been recorded to take them from.
	repeatShare = 0.3
	// clients is the closed loop's width: fsd callers wait for each
	// reply, and the host has two cores.
	clients = 2
	// stepBudget is the daemon's default per-request VM step cap,
	// which every request runs under (none asks for less).
	stepBudget = 200_000_000
	// blockSize is the daemon's default block size; requests omit it.
	blockSize = 64
)

// scratchDir holds the daemon's artifact caches, inside the checkout
// and ignored by git; everything created there is removed on exit.
const scratchDir = ".bench_build/perfbench-tmp"

var fsdNprocs = []int{2, 4, 8, 16}

// fsdEndpoints are the request kinds: analyze, transform with
// translation validation, and simulate under three machine
// configurations that the figure workloads never use.
var fsdEndpoints = []struct {
	path  string
	extra map[string]any
}{
	{"/v1/analyze", nil},
	{"/v1/transform", map[string]any{"verify": true}},
	{"/v1/simulate", map[string]any{"protocol": "mesi"}},
	{"/v1/simulate", map[string]any{"protocol": "write-update"}},
	{"/v1/simulate", map[string]any{"topology": "two-ring"}},
}

// fsdExpected is the seed commit's response digests: Digests[u] is the
// digest of the result of universe request u under CorpusSeed.
type fsdExpected struct {
	CorpusSeed int64    `json:"corpus_seed"`
	Digests    []string `json:"digests"`
}

// fsdMix drives an in-process fsd over loopback with a seeded stream
// of analyze, transform and simulate requests.
type fsdMix struct {
	corpusSeed, orderSeed int64
	sources               []string
	exp                   fsdExpected

	dir    string
	srv    *serve.Server
	done   chan error
	base   string
	client *http.Client
	stream *requestStream

	mu      sync.Mutex
	results map[int]string // universe id → result digest seen first

	mix mixSummary // every timed pass's replies
}

func newFSDMix(corpusSeed, orderSeed int64) (*fsdMix, error) {
	f := &fsdMix{corpusSeed: corpusSeed, orderSeed: orderSeed}
	for _, p := range gen.Corpus(corpusSize, corpusSeed) {
		f.sources = append(f.sources, gen.Generate(p))
	}
	if err := loadExpected("fsd-mix", &f.exp); err != nil {
		return nil, err
	}
	if f.exp.CorpusSeed != corpusSeed {
		fmt.Fprintf(os.Stderr, "perfbench: no expected digests for corpus seed %d; checking repeats for consistency only\n", corpusSeed)
		f.exp.Digests = nil
	}
	return f, nil
}

func (f *fsdMix) universe() int { return len(f.sources) * len(fsdNprocs) * len(fsdEndpoints) }

// reqID names one request body: universe request u in epoch e.
// Epoch e > 0 lowers the step budget by e steps, far above what any
// request uses, so the result is that of u while the daemon's cache
// key is new: a run never runs out of fresh requests however fast
// the daemon serves them.
type reqID struct{ u, epoch int }

// request decodes id into its endpoint, process count, effective step
// budget and JSON body.
func (f *fsdMix) request(id reqID) (path string, np int, budget int64, body []byte) {
	u := id.u
	ep := fsdEndpoints[u%len(fsdEndpoints)]
	np = fsdNprocs[u/len(fsdEndpoints)%len(fsdNprocs)]
	src := f.sources[u/(len(fsdEndpoints)*len(fsdNprocs))]
	m := map[string]any{"source": src, "nprocs": np}
	for k, v := range ep.extra {
		m[k] = v
	}
	budget = stepBudget - int64(id.epoch)
	if id.epoch > 0 {
		m["step_budget"] = budget
	}
	body, err := json.Marshal(m)
	if err != nil {
		panic(err) // strings, ints and bools always encode
	}
	return ep.path, np, budget, body
}

// Setup starts a fresh daemon: a new artifact cache directory,
// serve.New, a loopback listener, and the first /readyz answered.
func (f *fsdMix) Setup() error {
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratchDir, "fsd-cache-")
	if err != nil {
		return err
	}
	f.dir = dir
	f.srv, err = serve.New(serve.Options{Workers: clients, CacheDir: dir, LogW: io.Discard})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	f.done = make(chan error, 1)
	go func() { f.done <- f.srv.Serve(ln) }()
	f.base = "http://" + ln.Addr().String()
	f.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	resp, err := f.client.Get(f.base + "/readyz")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("readyz: %s", resp.Status)
	}
	f.stream = newRequestStream(f.orderSeed, f.universe())
	f.results = map[int]string{}
	f.mix = mixSummary{}
	return nil
}

// Close drains the daemon and removes its cache directory.
func (f *fsdMix) Close() error {
	if f.srv == nil {
		return nil
	}
	err := f.drain()
	if rerr := os.RemoveAll(f.dir); err == nil {
		err = rerr
	}
	f.srv = nil
	return err
}

func (f *fsdMix) drain() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := f.srv.Drain(ctx)
	if serr := <-f.done; err == nil {
		err = serr
	}
	f.client.CloseIdleConnections()
	return err
}

func (f *fsdMix) Check() (int64, int64, error) { return 0, 0, nil }

// requestStream is the seeded request order: each request repeats a
// body already sent with probability repeatShare, else it is the next
// fresh body: the universe in a seeded order, epoch after epoch. The
// sequence is fixed by the seed whichever client takes each request.
type requestStream struct {
	mu    sync.Mutex
	rng   *rand.Rand
	perm  []int
	next  int
	epoch int
	sent  []reqID
}

func newRequestStream(seed int64, universe int) *requestStream {
	rng := rand.New(rand.NewSource(seed))
	return &requestStream{rng: rng, perm: rng.Perm(universe)}
}

func (s *requestStream) take() (id reqID, repeat bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.sent) > 0 && s.rng.Float64() < repeatShare {
		return s.sent[s.rng.Intn(len(s.sent))], true
	}
	if s.next == len(s.perm) {
		s.epoch++
		s.perm = s.rng.Perm(len(s.perm))
		s.next = 0
	}
	id = reqID{u: s.perm[s.next], epoch: s.epoch}
	s.next++
	s.sent = append(s.sent, id)
	return id, false
}

// reply is one request's outcome as the client saw it.
type reply struct {
	id      reqID
	latency time.Duration
	handler time.Duration
	status  int
	cached  bool
	result  json.RawMessage
	ok      bool // 200, well-formed, and the result is the expected one
}

// Parts is 1: a pass of passRequests requests is short enough to run
// whole between two reference chunks.
func (f *fsdMix) Parts() int { return 1 }

// Part sends passRequests requests from the stream over the closed
// loop of clients.
func (f *fsdMix) Part(int) (passResult, error) {
	replies, err := f.drive(passRequests)
	if err != nil {
		return passResult{}, err
	}
	f.mix.add(replies)
	pr := passResult{ops: int64(len(replies))}
	for _, r := range replies {
		pr.latencies = append(pr.latencies, r.latency)
		if !r.ok {
			pr.failed++
		}
	}
	return pr, nil
}

// Summary is how the timed passes' requests split between cache hits
// and each endpoint's fresh requests.
func (f *fsdMix) Summary() string { return f.mix.String() }

// mixClasses are what serves a request: the response cache ("warm"),
// or else the endpoint's handler.
var mixClasses = []string{"warm", "analyze", "transform", "simulate"}

// mixSummary counts requests and sums their client latency by class.
type mixSummary struct {
	n    [4]int
	time [4]time.Duration
}

func (m *mixSummary) add(replies []reply) {
	for _, r := range replies {
		c := 0
		if !r.cached {
			c = slices.Index(mixClasses, strings.TrimPrefix(fsdEndpoints[r.id.u%len(fsdEndpoints)].path, "/v1/"))
		}
		m.n[c]++
		m.time[c] += r.latency
	}
}

func (m *mixSummary) String() string {
	var total time.Duration
	var reqs int
	for c := range mixClasses {
		total += m.time[c]
		reqs += m.n[c]
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "perfbench: %d requests by what served them (share of requests, share of client time):\n", reqs)
	for c, name := range mixClasses {
		fmt.Fprintf(&sb, "  %-10s %6d %6.1f%% %6.1f%%\n", name, m.n[c],
			100*ratio(float64(m.n[c]), float64(reqs)), 100*ratio(float64(m.time[c]), float64(total)))
	}
	return sb.String()
}

// drive sends n requests from the stream over the closed loop of
// clients and returns the replies in completion order.
func (f *fsdMix) drive(n int) ([]reply, error) {
	var (
		mu      sync.Mutex
		left    = n
		replies []reply
		firstEr error
		wg      sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if left == 0 || firstEr != nil {
					mu.Unlock()
					return
				}
				left--
				mu.Unlock()
				id, _ := f.stream.take()
				r, err := f.send(id)
				mu.Lock()
				if err != nil && firstEr == nil {
					firstEr = err
				}
				replies = append(replies, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return replies, firstEr
}

// send posts universe request u and checks its result: against the
// committed digest when the corpus has one, and always against the
// first result seen for the same body in this run.
func (f *fsdMix) send(id reqID) (reply, error) {
	path, _, _, body := f.request(id)
	u := id.u
	r := reply{id: id}
	t0 := time.Now()
	resp, err := f.client.Post(f.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return r, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.latency = time.Since(t0)
	if err != nil {
		return r, err
	}
	r.status = resp.StatusCode
	ns, _ := strconv.ParseInt(resp.Header.Get("X-Handler-Ns"), 10, 64)
	r.handler = time.Duration(ns)
	var env serve.Envelope
	if err := json.Unmarshal(raw, &env); err != nil || r.status != http.StatusOK || !env.OK {
		fmt.Fprintf(os.Stderr, "perfbench: %s (request %d): status %d: %s\n", path, u, r.status, bytes.TrimSpace(raw))
		return r, nil
	}
	r.cached = env.Cached
	r.result = env.Result
	d := digest(env.Result)
	f.mu.Lock()
	first, seen := f.results[u]
	if !seen {
		f.results[u] = d
	}
	f.mu.Unlock()
	r.ok = !seen || first == d
	if f.exp.Digests != nil && f.exp.Digests[u] != d {
		r.ok = false
	}
	if !r.ok {
		fmt.Fprintf(os.Stderr, "perfbench: %s (request %d): result digest %s differs from the expected one\n", path, u, d)
	}
	return r, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// expectFSD records the result digest of every universe request, sent
// one at a time to a fresh daemon.
func (f *fsdMix) expectFSD() (*fsdExpected, error) {
	exp := &fsdExpected{CorpusSeed: f.corpusSeed, Digests: make([]string, f.universe())}
	for u := range exp.Digests {
		r, err := f.send(reqID{u: u})
		if err != nil {
			return nil, err
		}
		if r.status != http.StatusOK {
			return nil, fmt.Errorf("request %d failed with status %d", u, r.status)
		}
		exp.Digests[u] = digest(r.result)
	}
	return exp, nil
}

// Traced runs one pass against a fresh daemon for the serving-side
// metrics, reopens its artifact cache to time recovery, then replays
// the same requests serially with each layer called from outside:
// the compile pipeline, VM and simulator for fresh bodies, an
// artifact store Put for each fresh result and a Get for each repeat.
func (f *fsdMix) Traced() (tracedResult, error) {
	t0 := time.Now()
	replies, err := f.drive(passRequests)
	untraced := time.Since(t0)
	if err != nil {
		return tracedResult{}, err
	}
	tr := tracedResult{attempted: int64(len(replies))}
	var mix mixSummary
	mix.add(replies)
	fmt.Fprint(os.Stderr, mix.String())
	var handler, wait, warm, warmHandler []float64
	var rejected float64
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	for _, r := range replies {
		if !r.ok {
			tr.failed++
		}
		if r.status == http.StatusTooManyRequests {
			rejected++
		}
		if r.cached {
			warm = append(warm, ms(r.latency))
			warmHandler = append(warmHandler, ms(r.handler))
		}
		handler = append(handler, ms(r.handler))
		wait = append(wait, ms(r.latency-r.handler))
	}

	// Recovery: reopen the populated cache the way a restarted fsd
	// would.
	dir := f.dir
	if err := f.drain(); err != nil {
		return tracedResult{}, err
	}
	t0 = time.Now()
	st, err := artifact.Open(dir, artifact.Options{})
	openTime := time.Since(t0)
	if err != nil {
		return tracedResult{}, err
	}
	counters := st.Counters()
	st.Close()
	os.RemoveAll(dir)
	f.srv = nil

	// The serial layer replay, in the order the stream issued the
	// requests.
	replay, err := os.MkdirTemp(scratchDir, "artifact-replay-")
	if err != nil {
		return tracedResult{}, err
	}
	defer os.RemoveAll(replay)
	store, err := artifact.Open(replay, artifact.Options{})
	if err != nil {
		return tracedResult{}, err
	}
	defer store.Close()
	ctx := context.Background()
	l := newLayers()
	var gets, puts []float64
	stream := newRequestStream(f.orderSeed, f.universe())
	results := map[reqID]json.RawMessage{}
	for _, r := range replies {
		results[r.id] = r.result
	}
	t0 = time.Now()
	for i := 0; i < len(replies); i++ {
		id, repeat := stream.take()
		path, np, budget, body := f.request(id)
		sum := sha256.Sum256(body)
		key := fmt.Sprintf("budget=%d|sha256=%s", budget, hex.EncodeToString(sum[:]))
		tr.attempted++
		if results[id] == nil {
			tr.failed++ // the daemon did not answer it; already reported
			continue
		}
		if repeat {
			t1 := time.Now()
			_, ok := store.Get(path, key)
			d := time.Since(t1)
			l.busy["artifact"] += d
			gets = append(gets, float64(d)/1e3)
			if !ok {
				tr.failed++
			}
			continue
		}
		if err := f.traceRequest(ctx, l, path, np, budget, body, results[id]); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: traced %s (request %d): %v\n", path, id.u, err)
			tr.failed++
		}
		t1 := time.Now()
		err := store.Put(ctx, path, key, results[id])
		d := time.Since(t1)
		l.busy["artifact"] += d
		puts = append(puts, float64(d)/1e3)
		if err != nil {
			return tracedResult{}, err
		}
	}
	tr.metrics = l.metrics(0, time.Since(t0), untraced)
	tr.metrics["serve.handler_p50_ms"] = median(handler)
	tr.metrics["serve.wait_p50_ms"] = median(wait)
	tr.metrics["serve.warm_p50_ms"] = median(warm)
	tr.metrics["serve.hit_ratio"] = float64(len(warm)) / float64(len(replies))
	tr.metrics["serve.rejected"] = rejected
	for c, name := range mixClasses {
		tr.metrics["serve."+name+"_s"] = mix.time[c].Seconds()
	}
	tr.metrics["artifact.open_s"] = openTime.Seconds()
	tr.metrics["artifact.get_us"] = median(gets)
	tr.metrics["artifact.put_us"] = median(puts)
	tr.metrics["artifact.entries"] = float64(counters.Entries)
	tr.metrics["artifact.mib"] = float64(counters.Bytes) / (1 << 20)
	fmt.Fprintf(os.Stderr, "perfbench: %d warm hits: client p50 %.3f ms, handler p50 %.3f ms (artifact get p50 %.1f us), the rest is HTTP and the client\n",
		len(warm), median(warm), median(warmHandler), median(gets))
	return tr, nil
}

// traceRequest redoes what the daemon's handler for path computes,
// layer by layer, and checks the simulator statistics against the
// daemon's response.
func (f *fsdMix) traceRequest(ctx context.Context, l *layers, path string, np int, budget int64, body []byte, resp json.RawMessage) error {
	var req struct {
		Source   string `json:"source"`
		Protocol string `json:"protocol"`
		Topology string `json:"topology"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	opt := core.Options{Nprocs: np, BlockSize: blockSize}
	ccfg := cache.DefaultConfig(np, blockSize)
	var err error
	if req.Protocol != "" {
		if ccfg.Protocol, err = cache.ParseProtocol(req.Protocol); err != nil {
			return err
		}
	}
	if req.Topology != "" {
		if ccfg.Topology, err = cache.ParseTopology(req.Topology); err != nil {
			return err
		}
	}
	var got struct {
		Stats       json.RawMessage `json:"stats"`
		Attribution json.RawMessage `json:"attribution"`
	}
	if err := json.Unmarshal(resp, &got); err != nil {
		return err
	}

	switch path {
	case "/v1/transform":
		opt.Verify, opt.VerifyBudget = true, budget
		return l.build(req.Source, func() error {
			_, err := core.RestructureCtx(ctx, req.Source, opt)
			return err
		})
	case "/v1/analyze":
		var res *core.Result
		if err := l.build(req.Source, func() (err error) {
			res, err = core.RestructureCtx(ctx, req.Source, opt)
			return err
		}); err != nil {
			return err
		}
		st, rep, err := l.execute(ctx, res.Original, ccfg, budget, true)
		if err != nil {
			return err
		}
		if err := sameJSON(rep, got.Attribution); err != nil {
			return err
		}
		return sameJSON(experiments.StatsRecord(st), got.Stats)
	default:
		var prog *core.Program
		if err := l.build(req.Source, func() (err error) {
			prog, err = core.CompileCtx(ctx, req.Source, opt)
			return err
		}); err != nil {
			return err
		}
		st, _, err := l.execute(ctx, prog, ccfg, budget, false)
		if err != nil {
			return err
		}
		return sameJSON(st, got.Stats)
	}
}

// sameJSON reports whether v encodes to the same JSON as want.
func sameJSON(v any, want json.RawMessage) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	var a, w any
	if err := json.Unmarshal(b, &a); err != nil {
		return err
	}
	if err := json.Unmarshal(want, &w); err != nil {
		return err
	}
	ab, _ := json.Marshal(a)
	wb, _ := json.Marshal(w)
	if !bytes.Equal(ab, wb) {
		return errors.New("replayed simulator output differs from the daemon's response")
	}
	return nil
}
