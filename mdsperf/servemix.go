package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"congestds/internal/congest"
	"congestds/internal/graph"
	"congestds/internal/obs"
	"congestds/internal/serve"
	"congestds/internal/verify"
)

// serve-mix traffic shape. No recorded mdsd traffic exists to replay, so
// the mix is assumed: two closed-loop clients, as scripts that wait for
// each certified answer would be. Its two shares are not free constants
// but the figures of the prototype the benchmark was sized on, where 1500
// requests made 130 engine runs and 77–79 coalesced responses.
const (
	serveClients   = 2
	protoRequests  = 1500
	protoRuns      = 130
	protoCoalesced = 78
	// freshFrac is the share of requests that name a key never asked
	// before, each of which runs the engine once.
	freshFrac = float64(protoRuns) / protoRequests
	// resendFrac is the share of fresh keys sent again right behind on the
	// other endpoint, so that the second request coalesces with the run.
	resendFrac = float64(protoCoalesced) / protoRuns
)

var (
	serveGraphs = []string{"uforest", "ba", "disk"}
	serveAlgos  = []string{"arbmds", "mcds"}
)

// exactKeys is the number of fresh keys the exact metrics (rounds,
// approx_ratio, cds_ratio) average over: the schedule's first fresh keys,
// one per (graph, family) pair. The seed alone fixes them, and they are
// answered whatever the time budget.
var exactKeys = len(serveGraphs) * len(serveAlgos)

// corpusSeed generates the served graphs. A daemon serves a fixed corpus
// while its traffic varies, so --seed drives the request schedule only:
// seeding the graphs too would make throughput follow the diameter of one
// random disk graph (mcds runs O(D̂) rounds) rather than the serving path.
const corpusSeed = 1

// Request headers by which a traced client tells the handler wrapper which
// request and client span a handler span belongs to.
const (
	hdrReq  = "X-Mdsperf-Req"
	hdrSpan = "X-Mdsperf-Span"
	hdrLane = "X-Mdsperf-Lane"
)

// solveKey is one cache key of the server: graph, family and ε ("" for the
// family default).
type solveKey struct{ graph, algo, eps string }

func (k solveKey) path(certify bool) string {
	ep := "/solve"
	if certify {
		ep = "/certify"
	}
	q := ep + "?graph=" + k.graph + ".csrg&algo=" + k.algo
	if k.eps != "" {
		q += "&eps=" + k.eps
	}
	return q
}

// request is one scheduled request.
type request struct {
	key     int // index into schedule.keys
	certify bool
	path    string
}

// schedule is the seeded request sequence. Clients draw from it in turn,
// so the sequence depends on the seed alone, whichever client sends each
// request. A freshFrac share of the requests name a new key, cycling
// through every (graph, family) pair. They are spaced evenly, so that any
// stretch of the schedule holds the same share of engine runs whatever
// the seed. A resendFrac share of them is sent again right behind on the
// other endpoint, so the two clients ask for the same key at once and the
// server coalesces them. The rest repeat a key asked before, on /solve or
// /certify. The cache is unbounded, so a repeat is a hit whichever earlier
// key it names; repeats pick uniformly among them.
//
// Fresh keys differ from the warm keys and from each other in ε alone,
// drawn from a 10⁻⁶ grid on [0.49, 0.51) around the families' default 0.5.
// The seed thus changes which requests come when, while a fresh run costs
// about what a run at the default costs.
type schedule struct {
	mu      sync.Mutex
	rng     *rand.Rand
	keys    []solveKey
	usedEps map[int]bool
	combo   int
	pending *request
	due     float64 // fresh keys owed: grows by freshFrac per request
	n       int
}

func newSchedule(seed uint64) *schedule {
	s := &schedule{rng: rand.New(rand.NewPCG(seed, 0x5e7e)), usedEps: map[int]bool{}}
	for _, g := range serveGraphs {
		s.keys = append(s.keys, solveKey{graph: g, algo: "arbmds"})
	}
	return s
}

// warmKeys is the number of keys set-up answers (one per graph).
var warmKeys = len(serveGraphs)

// next returns the index and contents of the next request, or false once
// limit requests (when positive) have been handed out.
func (s *schedule) next(limit int) (int, request, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if limit > 0 && s.n >= limit {
		return 0, request{}, false
	}
	i := s.n
	s.n++
	r := s.draw()
	r.path = s.keys[r.key].path(r.certify)
	return i, r, true
}

// drawKeys draws the schedule on, without sending, until it names n keys.
func (s *schedule) drawKeys(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.keys) < n {
		s.draw()
	}
}

// draw picks the next request's key and endpoint.
func (s *schedule) draw() request {
	s.due += freshFrac
	if s.pending != nil {
		r := *s.pending
		s.pending = nil
		return r
	}
	if s.due >= 1 {
		s.due--
		var k int
		for {
			k = 490000 + s.rng.IntN(20000)
			if !s.usedEps[k] && k != 500000 {
				break
			}
		}
		s.usedEps[k] = true
		pair := s.combo % (len(serveGraphs) * len(serveAlgos))
		s.combo++
		s.keys = append(s.keys, solveKey{
			graph: serveGraphs[pair/len(serveAlgos)],
			algo:  serveAlgos[pair%len(serveAlgos)],
			eps:   strconv.FormatFloat(float64(k)/1e6, 'f', 6, 64),
		})
		id := len(s.keys) - 1
		r := request{key: id, certify: s.rng.IntN(2) == 0}
		if s.rng.Float64() < resendFrac {
			s.pending = &request{key: id, certify: !r.certify}
		}
		return r
	}
	return request{key: s.rng.IntN(len(s.keys)), certify: s.rng.IntN(2) == 0}
}

// timedHandler wraps the server: for requests a traced client marks, it
// records a serve.handler span nested under the client's request span and
// keeps the handler's wall time by request index.
type timedHandler struct {
	srv *serve.Server
	t   *tracer

	mu sync.Mutex
	ns map[int]int64
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent := r.Header.Get(hdrSpan)
	if parent == "" {
		h.srv.ServeHTTP(w, r)
		return
	}
	idx, _ := strconv.Atoi(r.Header.Get(hdrReq))
	p, _ := strconv.Atoi(parent)
	lane, _ := strconv.Atoi(r.Header.Get(hdrLane))
	id := h.t.begin(true, "serve.handler", idx, p, lane)
	start := time.Now()
	h.srv.ServeHTTP(w, r)
	d := time.Since(start)
	h.t.end(id)
	h.mu.Lock()
	h.ns[idx] = int64(d)
	h.mu.Unlock()
}

// reply is what a client records of one response.
type reply struct {
	idx     int
	traced  bool
	latency time.Duration
	cache   string
	ok      bool // passed every check
	bytes   int
}

// servedView is the part of a /solve or /certify body the benchmark reads.
type servedView struct {
	Rounds  int  `json:"rounds"`
	SetSize int  `json:"set_size"`
	Passed  bool `json:"passed"`
}

// keyInfo is what the answers for one key report.
type keyInfo struct{ rounds, size int }

// checker validates responses as the clients receive them and keeps only
// what the metrics need: a hash of the first body per (key, endpoint),
// which every repeat must match byte for byte, and each key's rounds and
// set size. Only a key's first answer on an endpoint is decoded.
type checker struct {
	o    *outcome
	seed maphash.Seed

	mu     sync.Mutex
	bodies map[[2]int]uint64
	info   map[int]keyInfo
}

func newChecker(o *outcome) *checker {
	return &checker{o: o, seed: maphash.MakeSeed(), bodies: map[[2]int]uint64{}, info: map[int]keyInfo{}}
}

// check validates one response and reports whether it passed.
func (c *checker) check(idx int, req request, status int, body []byte, err error) bool {
	sum := maphash.Bytes(c.seed, body)
	ep := [2]int{req.key, 0}
	if req.certify {
		ep[1] = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil || status != http.StatusOK {
		c.o.fail("request %d (%s): status %d, error %v: %.200s", idx, req.path, status, err, body)
		return false
	}
	if prev, seen := c.bodies[ep]; seen {
		if prev != sum {
			c.o.fail("request %d (%s): body differs from an earlier answer for the same key", idx, req.path)
			return false
		}
		return true
	}
	var v servedView
	if err := json.Unmarshal(body, &v); err != nil || !v.Passed {
		c.o.fail("request %d (%s): certificate did not pass (decode error %v): %.200s", idx, req.path, err, body)
		return false
	}
	c.bodies[ep] = sum
	c.info[req.key] = keyInfo{rounds: v.Rounds, size: v.SetSize}
	return true
}

// serveMix runs mdsd's serving layer (internal/serve) in process behind a
// loopback listener and drives it with a closed loop of serveClients
// clients following the seeded schedule.
func serveMix(e *env) (*outcome, error) {
	t := e.tr
	o := &outcome{lanes: map[int]string{laneSetup: "set-up"}}
	for c := 0; c < serveClients; c++ {
		o.lanes[laneClient+c] = fmt.Sprintf("client %d", c)
	}
	// In a traced run the sink records every engine round of the measured
	// window, so its rounds and its runs (one Recorder per serve run) come
	// from the same population.
	var off atomic.Bool
	off.Store(true)
	sink := &roundSink{t: t, op: opEngine, parent: -1, lane: -1, off: &off}
	var runSink obs.Sink
	if t.enabled {
		runSink = sink
	}
	h := &timedHandler{t: t, ns: map[int]int64{}}
	ls := samples{}
	var (
		hs     *http.Server
		served chan error
		base   string
		gs     map[string]*graph.Graph
		files  []string
	)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	defer client.CloseIdleConnections()
	stop := func() error {
		if hs == nil {
			return nil
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		if serr := <-served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		hs = nil
		return err
	}
	defer stop()

	setupS, err := e.setups(func(k, root int) error {
		if err := stop(); err != nil {
			return err
		}
		dir := filepath.Join(e.dir, fmt.Sprintf("graphs-%d", k))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		gs, files = map[string]*graph.Graph{}, nil
		for _, name := range serveGraphs {
			var g *graph.Graph
			var err error
			ls.add("graph.gen_s", t.call(t.enabled, "graph.gen", opSetup, root, laneSetup, func() {
				g, err = graph.Named(name, e.sc.serveN, corpusSeed)
			}))
			if err != nil {
				return err
			}
			path := filepath.Join(dir, name+".csrg")
			t.call(t.enabled, "graph.write", opSetup, root, laneSetup, func() { err = g.WriteCSRGFile(path) })
			if err != nil {
				return err
			}
			gs[name], files = g, append(files, path)
		}
		h.srv = serve.New(serve.Config{Dir: dir, Engine: congest.EngineStepped, RunSink: runSink})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		base = "http://" + ln.Addr().String()
		srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
		hs, served = srv, make(chan error, 1)
		go func() { served <- srv.Serve(ln) }()
		// Warm the store: one request per graph loads it and answers its
		// warm key.
		var werr error
		t.call(t.enabled, "serve.warm", opSetup, root, laneSetup, func() {
			for _, name := range serveGraphs {
				st, _, body, err := get(client, base+solveKey{graph: name, algo: "arbmds"}.path(true), nil)
				if err == nil && st != http.StatusOK {
					err = fmt.Errorf("warm request for %s: status %d: %s", name, st, body)
				}
				if err != nil {
					werr = err
					return
				}
			}
		})
		return werr
	})
	if err != nil {
		return nil, err
	}
	if t.enabled {
		// The store loads lazily inside the warm request; time the same
		// load-and-validate call on its own.
		for _, path := range files {
			var err error
			ls.add("graph.load_s", t.call(true, "graph.load", opSetup, -1, laneSetup, func() {
				var c io.Closer
				if _, c, err = graph.Load(path); err == nil {
					err = c.Close()
				}
			}))
			if err != nil {
				return nil, err
			}
		}
	}
	if err := resetPeak(); err != nil {
		return nil, err
	}

	sched := newSchedule(e.seed)
	chk := newChecker(o)
	st0 := h.srv.Stats()
	var (
		mu      sync.Mutex
		replies []reply
		wg      sync.WaitGroup
	)
	steal := watchSteal()
	cpu0 := cpuSeconds()
	start := time.Now()
	t.startWindow()
	off.Store(false)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for e.sc.fixedRequests > 0 || time.Since(start).Seconds() < e.seconds {
				idx, req, ok := sched.next(e.sc.fixedRequests)
				if !ok {
					return
				}
				on := t.active()
				var hdr http.Header
				sp := t.begin(on, "client.request", idx, -1, laneClient+c)
				if on {
					hdr = http.Header{
						hdrReq:  {strconv.Itoa(idx)},
						hdrSpan: {strconv.Itoa(sp)},
						hdrLane: {strconv.Itoa(laneClient + c)},
					}
				}
				t0 := time.Now()
				status, cache, body, err := get(client, base+req.path, hdr)
				lat := time.Since(t0)
				t.end(sp)
				ok = chk.check(idx, req, status, body, err)
				mu.Lock()
				replies = append(replies, reply{idx: idx, traced: on, latency: lat, cache: cache, ok: ok, bytes: len(body)})
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	cpu := cpuSeconds() - cpu0
	off.Store(true)
	stW := h.srv.Stats()
	steal.put(o)
	if err := putPeakRSS(o); err != nil {
		return nil, err
	}
	if t.enabled && int64(sink.recorders) != stW.Runs-st0.Runs {
		o.fail("obs saw %d serve runs in the window, the server counted %d", sink.recorders, stW.Runs-st0.Runs)
	}

	// Latencies by cache outcome, of the replies that passed their checks.
	info := chk.info
	var hit, miss, lat, tracedLat []float64
	var handlerHit, httpHit, handlerMiss []float64
	var respBytes int
	o.attempted = len(replies)
	for _, r := range replies {
		respBytes += r.bytes
		if r.traced {
			tracedLat = append(tracedLat, r.latency.Seconds())
		} else {
			lat = append(lat, r.latency.Seconds())
		}
		if !r.ok {
			continue
		}
		h.mu.Lock()
		hns, timed := h.ns[r.idx]
		h.mu.Unlock()
		switch r.cache {
		case "hit":
			if r.traced {
				if timed {
					handlerHit = append(handlerHit, float64(hns)/1e3)
					httpHit = append(httpHit, float64(int64(r.latency)-hns)/1e3)
				}
			} else {
				hit = append(hit, r.latency.Seconds()*1e3)
			}
		case "miss", "coalesced":
			if r.traced {
				if timed && r.cache == "miss" {
					handlerMiss = append(handlerMiss, float64(hns)/1e6)
				}
			} else {
				miss = append(miss, r.latency.Seconds()*1e3)
			}
		default:
			o.fail("request %d: unknown X-Mdsd-Cache %q", r.idx, r.cache)
		}
	}
	// Answer the keys the exact metrics average over that the window did
	// not reach.
	sched.drawKeys(warmKeys + exactKeys)
	for k := warmKeys; k < warmKeys+exactKeys; k++ {
		if _, ok := chk.info[k]; ok {
			continue
		}
		req := request{key: k, path: sched.keys[k].path(false)}
		status, _, body, err := get(client, base+req.path, nil)
		o.attempted++
		chk.check(-1, req, status, body, err)
	}
	st1 := h.srv.Stats()
	runs := st1.Runs - st0.Runs
	fresh := 0
	for k := range info {
		if k >= warmKeys {
			fresh++
		}
	}
	if runs != int64(fresh) {
		o.fail("server ran %d engine runs for %d distinct new keys", runs, fresh)
	}
	if st1.Errors != 0 {
		o.fail("server counted %d errors", st1.Errors)
	}

	// Quality of the answers to the exact keys, against each graph's
	// dual-packing lower bound.
	lbs := map[string]float64{}
	for name, g := range gs {
		lbs[name] = verify.Certify(g, nil).LowerBound
	}
	var rounds, approx, cdsRatio float64
	var nKeys, nCDS int
	for k := warmKeys; k < warmKeys+exactKeys; k++ {
		in, answered := info[k]
		if !answered {
			continue // its request failed and was counted
		}
		key := sched.keys[k]
		r := float64(in.size) / lbs[key.graph]
		rounds += float64(in.rounds)
		approx += r
		nKeys++
		if key.algo == "mcds" {
			cdsRatio += r
			nCDS++
		}
	}

	o.e2e.put("setup_s", "s", setupS, fmt.Sprintf("median of %d set-ups: write 3 graphs, start the server, warm it", e.sc.setups))
	o.e2e.put("op_s", "s", median(lat), fmt.Sprintf("median latency of %d untraced requests", len(lat)))
	o.e2e.put("cpu_op_s", "s", cpu/float64(max(len(replies), 1)),
		"process CPU time per request in the window (clients, HTTP and server share the process)")
	o.e2e.put("throughput_rps", "1/s", float64(len(replies))/elapsed,
		fmt.Sprintf("%d requests in %.1f s, %d clients", len(replies), elapsed, serveClients))
	o.e2e.put("rounds", "count", ratio0(rounds, nKeys), fmt.Sprintf("mean over the first %d fresh keys", nKeys))
	o.e2e.put("approx_ratio", "ratio", ratio0(approx, nKeys), fmt.Sprintf("mean |S|/LB over the first %d fresh keys", nKeys))
	o.e2e.put("cds_ratio", "ratio", ratio0(cdsRatio, nCDS), fmt.Sprintf("mean |CDS|/LB over %d of those, the mcds keys", nCDS))
	p, b := percentile(hit, 50)
	o.e2e.put("hit_p50_ms", "ms", p, pctNote(len(hit), b))
	p, b = percentile(hit, 99)
	o.e2e.put("hit_p99_ms", "ms", p, pctNote(len(hit), b))
	p, b = percentile(miss, 50)
	o.e2e.put("miss_p50_ms", "ms", p, pctNote(len(miss), b))
	p, b = percentile(miss, 95)
	o.e2e.put("miss_p95_ms", "ms", p, pctNote(len(miss), b))

	p, b = percentile(handlerHit, 50)
	o.layer.put("serve.handler_hit_p50_us", "us", p, pctNote(len(handlerHit), b))
	p, b = percentile(handlerHit, 99)
	o.layer.put("serve.handler_hit_p99_us", "us", p, pctNote(len(handlerHit), b))
	p, b = percentile(httpHit, 50)
	o.layer.put("serve.http_hit_p50_us", "us", p, "client latency - handler time, "+pctNote(len(httpHit), b))
	winRuns := stW.Runs - st0.Runs
	o.layer.put("serve.runs", "count", float64(winRuns), "engine runs in the window = distinct new keys")
	o.layer.put("serve.coalesced", "count", float64(stW.CoalescedHits-st0.CoalescedHits), "")
	cacheHits := stW.CacheHits - st0.CacheHits
	o.layer.put("serve.cache_hits", "count", float64(cacheHits), "")
	o.layer.put("serve.hit_ratio", "ratio", float64(cacheHits)/float64(max(len(replies), 1)), "cache hits / requests")
	engineS := float64(sink.wallNs) / 1e9 / float64(max(sink.recorders, 1))
	o.layer.put("serve.engine_round_s", "s", engineS, fmt.Sprintf("round wall per serve run, %d runs", sink.recorders))
	p, b = percentile(handlerMiss, 50)
	o.layer.put("serve.run_wall_p50_ms", "ms", p, "handler wall of requests that ran the engine, "+pctNote(len(handlerMiss), b))
	o.layer.put("serve.resp_mb", "MB", float64(respBytes)/1e6, "response bodies received")
	o.layer.put("graph.gen_s", "s", ls.med("graph.gen_s"), "set-up generation, median over graphs")
	o.layer.put("graph.load_s", "s", ls.med("graph.load_s"), "load + validate, median over graphs")
	o.layer.put("congest.round_s", "s", engineS, "engine round wall per serve run")
	o.layer.put("congest.ns_per_msg", "ns", float64(sink.wallNs)/float64(max(sink.msgs, 1)), "")
	durs := make([]float64, len(sink.durs))
	for i, d := range sink.durs {
		durs[i] = float64(d) / 1e3
	}
	p, b = percentile(durs, 50)
	o.layer.put("congest.round_p50_us", "us", p, pctNote(len(durs), b))
	p, b = percentile(durs, 99)
	o.layer.put("congest.round_p99_us", "us", p, pctNote(len(durs), b))
	perRun := "mean per serve run in the window (not exact: the window decides which keys run)"
	o.layer.put("congest.rounds", "count", ratio0(float64(sink.rounds), sink.recorders), perRun)
	o.layer.put("congest.msgs", "count", ratio0(float64(sink.msgs), sink.recorders), perRun)
	o.layer.put("congest.bits", "count", ratio0(float64(sink.bits), sink.recorders), perRun)
	if t.enabled {
		o.layer.put("obs.overhead_frac", "ratio", median(tracedLat)/median(lat)-1, "traced / untraced op_s (median latency) - 1")
	}
	return o, stop()
}

// ratio0 is the mean sum/n, or 0 when n is 0.
func ratio0(sum float64, n int) float64 { return ratio(sum, float64(n)) }

// get issues one GET and returns the status, the X-Mdsd-Cache header and
// the whole body.
func get(c *http.Client, url string, hdr http.Header) (int, string, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, "", nil, err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Mdsd-Cache"), body, err
}
