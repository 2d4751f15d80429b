package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"syncsim/internal/api"
	"syncsim/internal/client"
	"syncsim/internal/core"
	"syncsim/internal/engine"
	"syncsim/internal/predict"
	"syncsim/internal/server"
)

// The serve-mixed key pool: every benchmark but Qsort × model × seed at a
// tiny scale. Qsort is left out because its generator has a fixed floor
// (about 1.3 s per cold cell at any scale this small) that would turn the
// workload into a Qsort simulation benchmark; paper-tables covers it.
var (
	serveBenches = []string{"Grav", "Pdsa", "FullConn", "Pverify", "Topopt"}
	serveModels  = []string{"queue", "tts", "wo"}
)

const (
	serveScale = 0.005
	serveSeeds = 4
	// serveZipf is the popularity skew over the 60 keys.
	serveZipf = 1.2
	// serveResultCache and serveTraceCache size the server's result LRU
	// and trace cache below the pool (60 results over 20 traces), so the
	// unpopular tail keeps missing: misses fill both caches while hits
	// read them.
	serveResultCache = 56
	serveTraceCache  = 16
	// Request mix: shares of /v1/sim, analytic /v1/predict, and auto
	// /v1/predict whose error tolerance forces the simulation fallback.
	serveSimShare      = 0.80
	serveAnalyticShare = 0.17
)

// modelWire is the lock and consistency pair of each machine model.
var modelWire = map[string][2]string{"queue": {"queue", "sc"}, "tts": {"tts", "sc"}, "wo": {"queue", "wo"}}

// Request kinds of the serve-mixed stream.
const (
	kindSim = iota
	kindAnalytic
	kindAuto
)

// serveCell is one key of the pool with the requests built from it.
type serveCell struct {
	sim      api.SimRequest
	analytic api.PredictRequest
	auto     api.PredictRequest
	key      string // the server's job key of sim (and of auto's fallback)
}

// serveOp is one generated request: a kind and a pool index.
type serveOp struct {
	kind, cell int
}

// serveStream generates the serve-mixed request stream from a seed.
// Request i depends only on (seed, i), so the stream is the same for a
// seed however the closed loop's callers interleave. The popularity order
// is the same for every seed and interleaves the benchmarks (rank r is
// benchmark r mod 5), because answer sizes differ by benchmark: a seeded
// order would make the hottest keys, and so the throughput, depend on the
// seed rather than on the program.
type serveStream struct {
	seed uint64
	cdf  []float64 // Zipf CDF over popularity ranks
	rank []int     // popularity rank -> pool index
}

func newServeStream(seed int64, n int) *serveStream {
	s := &serveStream{seed: uint64(seed), cdf: make([]float64, n)}
	var total float64
	for r := 0; r < n; r++ {
		total += 1 / math.Pow(float64(r+1), serveZipf)
		s.cdf[r] = total
	}
	for r := range s.cdf {
		s.cdf[r] /= total
	}
	perBench := len(serveModels) * serveSeeds
	for r := 0; r < n; r++ {
		b, m, seed := r%len(serveBenches), r/len(serveBenches)%len(serveModels), r/(len(serveBenches)*len(serveModels))
		s.rank = append(s.rank, b*perBench+m*serveSeeds+seed)
	}
	return s
}

// at returns request i of the stream.
func (s *serveStream) at(i uint64) serveOp {
	r := rand.New(rand.NewPCG(s.seed, i+1))
	rank := sort.SearchFloat64s(s.cdf, r.Float64())
	if rank >= len(s.rank) {
		rank = len(s.rank) - 1
	}
	kind := kindAuto
	switch u := r.Float64(); {
	case u < serveSimShare:
		kind = kindSim
	case u < serveSimShare+serveAnalyticShare:
		kind = kindAnalytic
	}
	return serveOp{kind: kind, cell: s.rank[rank]}
}

// servePool builds the key pool.
func servePool() ([]serveCell, error) {
	var pool []serveCell
	for _, b := range serveBenches {
		for _, m := range serveModels {
			for seed := int64(1); seed <= serveSeeds; seed++ {
				w := modelWire[m]
				sim := api.SimRequest{Bench: b, Scale: serveScale, Seed: seed, Lock: w[0], Cons: w[1]}
				plan, err := server.PlanSim(sim)
				if err != nil {
					return nil, err
				}
				pred := api.PredictRequest{Bench: b, Model: m, Scale: serveScale, Seed: seed, Mode: api.PredictAnalytic}
				auto := pred
				auto.Mode, auto.MaxError = api.PredictAuto, 1e-9
				pool = append(pool, serveCell{sim: sim, analytic: pred, auto: auto, key: plan.Key})
			}
		}
	}
	return pool, nil
}

// httpEnv is one in-process HTTP server on a loopback listener.
type httpEnv struct {
	url  string
	hs   *http.Server
	done chan struct{}
}

// startHTTP serves h on addr, or on any free loopback port when addr is
// empty or taken.
func startHTTP(h http.Handler, addr string) (*httpEnv, error) {
	const anyPort = "127.0.0.1:0"
	if addr == "" {
		addr = anyPort
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil && addr != anyPort {
		ln, err = net.Listen("tcp", anyPort)
	}
	if err != nil {
		return nil, err
	}
	e := &httpEnv{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h, ErrorLog: log.New(io.Discard, "", 0)}, done: make(chan struct{})}
	go func() {
		defer close(e.done)
		e.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on stop
	}()
	return e, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (e *httpEnv) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.hs.Shutdown(ctx); err != nil {
		e.hs.Close() //nolint:errcheck // forced close after a stuck drain
	}
	<-e.done
}

// discardLogf drops the program's operational log lines.
func discardLogf(string, ...any) {}

// serveEnv is one in-process syncsimd and the benchmark's callers.
type serveEnv struct {
	srv    *server.Server
	http   *httpEnv
	tr     *transport
	client *client.Client
	work   *engineWork
}

func startServe(model *predict.Model, workers int, rec *Recorder) (*serveEnv, error) {
	srv := server.New(server.Config{
		Workers:         workers,
		ResultCacheSize: serveResultCache,
		TraceCacheCap:   serveTraceCache,
		Predict:         model,
		Logf:            discardLogf,
	})
	env := &serveEnv{srv: srv, work: &engineWork{}}
	var h http.Handler = srv.Handler()
	if rec != nil {
		h = &middleware{rec: rec, name: "server.handler", node: "syncsimd", next: h, work: env.work}
	}
	he, err := startHTTP(h, "")
	if err != nil {
		srv.Close()
		return nil, err
	}
	env.http = he
	env.tr = newTransport(rec, workers, false)
	env.client = client.New(he.url, client.Config{HTTPClient: env.tr.client(), MaxAttempts: 1})
	if !env.client.Healthy(context.Background()) {
		env.stop()
		return nil, errors.New("syncsimd did not answer /healthz")
	}
	return env, nil
}

func (e *serveEnv) stop() {
	e.srv.BeginDrain()
	e.http.stop()
	e.srv.Close()
	e.tr.close()
}

// exposition is the /metrics document.
type exposition struct {
	Counters map[string]int64 `json:"counters"`
	Timers   map[string]struct {
		TotalNS int64 `json:"total_ns"`
		Count   int64 `json:"count"`
	} `json:"timers"`
	Gauges map[string]int64 `json:"gauges"`
}

// scrape reads a server's /metrics.
func scrape(ctx context.Context, hc *http.Client, url string) (*exposition, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc exposition
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	return &doc, nil
}

// opRecord is one completed operation of a closed loop.
type opRecord struct {
	lat   time.Duration
	end   time.Duration // completion, from the start of the loop
	class string        // "fast" or "run"; "" when the operation failed
	root  int           // its bench.op span, when traced
}

// opClock times one operation: the operation calls start just before its
// call into the program and stop right after, so neither the request's
// generation nor the benchmark's check of the answer is in its latency
// or in its "bench.op" root span.
type opClock struct {
	rec  *Recorder
	req  uint64
	root int
	t0   time.Time
	lat  time.Duration
}

func (c *opClock) start(ctx context.Context) context.Context {
	c.root = c.rec.Begin("bench.op", 0, c.req)
	c.t0 = time.Now()
	return withSpan(ctx, c.root, c.req)
}

func (c *opClock) stop() {
	c.lat = time.Since(c.t0)
	c.rec.Finish(c.root)
}

// closedLoop runs workers callers until the deadline; each sends its next
// operation only after the previous one completed. Operation i of the
// stream goes to whichever caller is free, so the stream's order is fixed
// by the seed while the interleaving is not. op returns the class of the
// answer, or an error that fails the operation.
func closedLoop(workers int, deadline time.Time, rec *Recorder, op func(ctx context.Context, i uint64, clk *opClock) (string, error)) ([]opRecord, time.Duration, []error) {
	var next atomic.Uint64
	recs := make([][]opRecord, workers)
	errs := make([][]error, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				clk := &opClock{rec: rec, req: i + 1}
				class, err := op(context.Background(), i, clk)
				if err != nil {
					class = ""
					errs[w] = append(errs[w], err)
				}
				recs[w] = append(recs[w], opRecord{lat: clk.lat, end: time.Since(start), class: class, root: clk.root})
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []opRecord
	var allErrs []error
	for w := range recs {
		all = append(all, recs[w]...)
		allErrs = append(allErrs, errs[w]...)
	}
	return all, elapsed, allErrs
}

// answerCheck keeps the first answer seen for every job key and compares
// every later answer with it; verify then compares each first answer with
// a direct engine run. An answer equal to the first, and a first equal to
// the engine, is equal to the engine whatever class served it.
type answerCheck struct {
	mu       sync.Mutex
	first    map[string]*api.SimPayload
	requests map[string]api.SimRequest
}

func newAnswerCheck() *answerCheck {
	return &answerCheck{first: map[string]*api.SimPayload{}, requests: map[string]api.SimRequest{}}
}

// add records one answer for key; false means it differs from the first.
func (c *answerCheck) add(key string, req api.SimRequest, p *api.SimPayload) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.first[key]
	if !ok {
		c.first[key] = p
		c.requests[key] = req
		return true
	}
	return f.Request == p.Request && f.Ideal == p.Ideal && reflect.DeepEqual(f.Result, p.Result)
}

// verify runs every key's request directly on an engine and returns the
// keys whose first answer differs from it.
func (c *answerCheck) verify(ctx context.Context, workers int) (map[string]bool, error) {
	keys := make([]string, 0, len(c.first))
	for k := range c.first {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	tasks := make([]engine.Task, len(keys))
	for i, k := range keys {
		t, err := server.TaskForRequest(c.requests[k])
		if err != nil {
			return nil, err
		}
		tasks[i] = t
	}
	results, _, err := engine.New(engine.Config{Workers: workers}).Run(ctx, tasks)
	if err != nil {
		return nil, err
	}
	wrong := map[string]bool{}
	for i, k := range keys {
		got, _ := json.Marshal(struct {
			I any
			R any
		}{c.first[k].Ideal, c.first[k].Result})
		want, _ := json.Marshal(struct {
			I any
			R any
		}{results[i].Ideal, results[i].Result})
		if !bytes.Equal(got, want) {
			wrong[k] = true
		}
	}
	return wrong, nil
}

// servePhase is one closed-loop phase of the serve-mixed workload.
type servePhase struct {
	ops     []opRecord
	elapsed time.Duration
	errs    []error
	metrics *exposition
	env     *serveEnv
	okByKey map[string]int // answers per key, to fail them if the key's first answer is wrong
}

// servePhaseRun drives one server for dur.
func servePhaseRun(ctx context.Context, workers int, env *serveEnv, stream *serveStream, pool []serveCell, want map[int]api.Prediction, check *answerCheck, rec *Recorder, dur time.Duration) (*servePhase, error) {
	ph := &servePhase{env: env, okByKey: map[string]int{}}
	var mu sync.Mutex
	countKey := func(k string) {
		mu.Lock()
		ph.okByKey[k]++
		mu.Unlock()
	}
	op := func(ctx context.Context, i uint64, clk *opClock) (string, error) {
		o := stream.at(i)
		cl := env.client
		cell := pool[o.cell]
		ctx = clk.start(ctx)
		callID := rec.Begin("client.call", clk.root, clk.req)
		ctx = withSpan(ctx, callID, clk.req)
		switch o.kind {
		case kindSim:
			resp, err := cl.Sim(ctx, cell.sim)
			rec.Finish(callID)
			clk.stop()
			if err != nil {
				return "", err
			}
			if !check.add(cell.key, cell.sim, resp.SimPayload) {
				return "", fmt.Errorf("sim %s: answer differs from an earlier one", cell.key)
			}
			countKey(cell.key)
			return servedClass(resp.Served), nil
		default:
			req := cell.analytic
			if o.kind == kindAuto {
				req = cell.auto
			}
			resp, err := cl.Predict(ctx, req)
			rec.Finish(callID)
			clk.stop()
			if err != nil {
				return "", err
			}
			if w, ok := want[o.cell]; !ok || resp.Prediction == nil || *resp.Prediction != w {
				return "", fmt.Errorf("predict %s/%s: prediction differs from the model's", cell.analytic.Bench, cell.analytic.Model)
			}
			if resp.Source == "analytic" {
				if o.kind != kindAnalytic {
					return "", fmt.Errorf("predict %s: auto with a 1e-9 tolerance answered analytically", cell.key)
				}
				return "fast", nil
			}
			if resp.Sim == nil || !check.add(cell.key, cell.sim, resp.Sim) {
				return "", fmt.Errorf("predict %s: simulated answer differs from an earlier one", cell.key)
			}
			countKey(cell.key)
			return servedClass(resp.Served), nil
		}
	}
	ph.ops, ph.elapsed, ph.errs = closedLoop(workers, time.Now().Add(dur), rec, op)
	m, err := scrape(ctx, env.tr.client(), env.http.url)
	if err != nil {
		return nil, err
	}
	ph.metrics = m
	return ph, nil
}

// servedClass maps a served marker to a latency class: answers served
// without running the simulator are fast, the rest ran (or waited on a
// run).
func servedClass(served string) string {
	switch served {
	case "cache", "store", "model":
		return "fast"
	}
	return "run"
}

// latencies returns the latencies of the successful operations of a
// class ("" for all), in milliseconds.
func latencies(ops []opRecord, class string) []float64 {
	var out []float64
	for _, o := range ops {
		if o.class != "" && (class == "" || o.class == class) {
			out = append(out, ms(o.lat))
		}
	}
	return out
}

// statWindow is the length of the windows a closed loop's throughput and
// median latency are taken over; the reported value is the median over
// windows, so a burst of load from outside the benchmark, or the cold
// start, moves it only as far as it moves the median window.
const statWindow = time.Second

// windowed returns the median over whole statWindow windows of the
// successful operations' throughput (per second) and median latency (ms).
func windowed(ops []opRecord, elapsed time.Duration) (perSec, p50 float64) {
	n := int(elapsed / statWindow)
	if n < 1 {
		return float64(len(latencies(ops, ""))) / elapsed.Seconds(), median(latencies(ops, ""))
	}
	lat := make([][]float64, n)
	for _, o := range ops {
		if w := int(o.end / statWindow); o.class != "" && w < n {
			lat[w] = append(lat[w], ms(o.lat))
		}
	}
	var rates, meds []float64
	for _, l := range lat {
		rates = append(rates, float64(len(l))/statWindow.Seconds())
		if len(l) > 0 {
			meds = append(meds, median(l))
		}
	}
	return median(rates), median(meds)
}

// meanLatency is the mean latency of every operation, failed ones too.
func meanLatency(ops []opRecord) float64 {
	var s time.Duration
	for _, o := range ops {
		s += o.lat
	}
	return ratio(float64(s), float64(len(ops)))
}

// loadServeModel loads the fitted prediction model the benchmark keeps.
func loadServeModel(dir string) (*predict.Model, error) {
	return predict.LoadFile(filepath.Join(dir, "predict_model.json"))
}

// runServe is the serve-mixed workload.
func runServe(ctx context.Context, cfg runConfig) (*outcome, error) {
	pool, err := servePool()
	if err != nil {
		return nil, err
	}
	var (
		env    *serveEnv
		stream *serveStream
		want   map[int]api.Prediction
	)
	setup := func(rec *Recorder) func() (func(), error) {
		return func() (func(), error) {
			m, err := loadServeModel(cfg.data)
			if err != nil {
				return nil, err
			}
			want = map[int]api.Prediction{}
			for i, c := range pool {
				p, err := m.Predict(c.analytic.Bench, c.analytic.Model, c.analytic.Scale)
				if err != nil {
					return nil, err
				}
				want[i] = p
			}
			e, err := startServe(m, cfg.workers, rec)
			if err != nil {
				return nil, err
			}
			env, stream = e, newServeStream(cfg.seed, len(pool))
			return e.stop, nil
		}
	}
	setupS, err := setupMedian(setup(nil))
	if err != nil {
		return nil, err
	}
	out := newOutcome("serve-mixed", setupS)
	check := newAnswerCheck()

	dur := cfg.duration
	if cfg.trace {
		dur /= 2
	}
	rss := startRSS()
	plain, err := servePhaseRun(ctx, cfg.workers, env, stream, pool, want, check, nil, dur)
	rssMiB := rss.finish()
	env.stop()
	if err != nil {
		return nil, err
	}
	phases := []*servePhase{plain}
	var traced *servePhase
	if cfg.trace {
		if _, err := setup(cfg.rec)(); err != nil {
			return nil, err
		}
		traced, err = servePhaseRun(ctx, cfg.workers, env, stream, pool, want, check, cfg.rec, dur)
		env.stop()
		if err != nil {
			return nil, err
		}
		phases = append(phases, traced)
	}
	wrong, err := check.verify(ctx, cfg.workers)
	if err != nil {
		return nil, err
	}
	for _, ph := range phases {
		for _, o := range ph.ops {
			var diffs []string
			if o.class == "" {
				diffs = []string{"request failed"}
			}
			out.attempt(diffs)
		}
		for _, e := range ph.errs {
			out.diffs = appendDiff(out.diffs, e.Error())
		}
		// Answers whose key's first answer disagrees with the engine were
		// counted as successes above; they are failures.
		for k := range wrong {
			out.failed += int64(ph.okByKey[k])
			out.diffs = appendDiff(out.diffs, "answer for "+k+" differs from a direct engine run")
		}
	}

	m := plain.metrics
	all := latencies(plain.ops, "")
	out.e2e["req_per_s"], out.e2e["p50_ms"] = windowed(plain.ops, plain.elapsed)
	out.addReport("sim_mcycles_per_s", float64(m.Counters["sim_cycles_total"])/1e6/(float64(m.Timers["phase_simulate"].TotalNS)/1e9), "Mcycles/s", "higher", 0, "server's simulated Mcycles per host second of simulation (misses)")
	out.e2e["rss_mib"] = rssMiB
	out.addReport("peak_rss_mib", peakRSSMiB(), "MiB", "lower", 0, "peak resident set of the process")
	out.addReport("req_per_s_overall", float64(len(all))/plain.elapsed.Seconds(), "1/s", "higher", len(all), "completed requests over the whole phase, closed loop")
	addLatencyReport(out, "fast", latencies(plain.ops, "fast"), 99)
	addLatencyReport(out, "run", latencies(plain.ops, "run"), 90)

	if cfg.trace {
		serveLayers(out, cfg, plain, traced)
	}
	return out, nil
}

// addLatencyReport reports the median of a latency sample and its pct-th
// percentile. When fewer than ten samples lie beyond pct, it reports the
// highest percentile that has ten beyond it instead, named by that
// percentile; with under twenty samples there is no tail to report.
func addLatencyReport(out *outcome, prefix string, lat []float64, pct float64) {
	out.addReport(prefix+"_p50_ms", nanToZero(median(lat)), "ms", "lower", len(lat), "median")
	v, label := percentileOrNaN(lat, pct), "p"+trimFloat(pct)
	if math.IsNaN(v) {
		t := tail(lat)
		v, label = t.Value, t.Label()
	}
	out.addReport(prefix+"_"+label+"_ms", v, "ms", "lower", len(lat), "at least 10 samples lie beyond it")
}

func nanToZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

func appendDiff(diffs []string, d string) []string {
	if len(diffs) < 8 {
		diffs = append(diffs, d)
	}
	return diffs
}

// serveLayers fills the per-layer metrics of a traced serve-mixed run
// from the traced phase.
func serveLayers(out *outcome, cfg runConfig, plain, traced *servePhase) {
	spans := cfg.rec.Spans()
	m := traced.metrics
	w := traced.env.work
	sums := spanSums(spans)
	out.layer["workload.generate_s"] = sums["workload.generate"].Seconds()
	out.layer["trace.ideal_s"] = sums["trace.ideal"].Seconds()
	out.layer["machine.run_s"] = sums["machine.run"].Seconds()
	out.layer["machine.ns_per_sim_cycle"] = ratio(float64(sums["machine.run"]), float64(w.cycles.Load()))
	out.layer["machine.sim_cycles"] = float64(w.cycles.Load())
	out.layer["machine.sched_steps"] = float64(w.steps.Load())
	out.layer["machine.sched_iterations"] = float64(w.iters.Load())
	hits, misses := float64(m.Gauges["trace_cache_hit"]), float64(m.Gauges["trace_cache_miss"])
	out.layer["engine.trace_cache_hits"] = hits
	out.layer["engine.trace_cache_misses"] = misses
	out.layer["engine.trace_cache_hit_ratio"] = ratio(hits, hits+misses)
	out.layer["engine.occupancy"] = ratio(float64(sums["engine.task"]), float64(traced.elapsed)*float64(cfg.workers))
	serverCounters(out, m)
	out.layer["predict.analytic"] = float64(m.Counters["predict_analytic"])
	out.layer["predict.fallback"] = float64(m.Counters["predict_fallback"])
	out.layer["client.status_429"] = float64(traced.env.tr.count(http.StatusTooManyRequests))
	for _, k := range []string{"fleet.hedged", "fleet.hedge_wins", "fleet.hedge_useful_ratio", "fleet.max_backend_share",
		"fleet.cache_hits", "fleet.store_hits", "fleet.coalesced", "store.hit_ratio"} {
		out.layer[k] = 0
	}
	out.layer["trace.overhead_frac"] = meanLatency(traced.ops)/meanLatency(plain.ops) - 1
	out.addAccounting(spans)

	// Per-layer times of each request class.
	class := map[int]string{}
	for _, o := range traced.ops {
		class[o.root] = o.class
	}
	self := selfByRootClass(spans, class)
	for _, c := range []string{"fast", "run"} {
		n := 0
		for _, cl := range class {
			if cl == c {
				n++
			}
		}
		for _, name := range []string{"client.call", "http.roundtrip", "server.handler", "engine.task", "machine.run"} {
			out.addReport(name+"_self_s["+c+"]", ratio(self[c][name].Seconds(), float64(n)), "s", "lower", n, "mean self time per "+c+" request")
		}
	}
	out.addReport("client.call_s", ratio(sums["client.call"].Seconds(), float64(len(traced.ops))), "s", "lower", len(traced.ops), "mean client call per request")
	out.addReport("server.handler_s", ratio(sums["server.handler"].Seconds(), float64(len(traced.ops))), "s", "lower", len(traced.ops), "mean handler time per request")
	out.addReport("server.phase_generate_s", float64(m.Timers["phase_generate"].TotalNS)/1e9, "s", "lower", int(m.Timers["phase_generate"].Count), "server /metrics timer over the traced phase")
	out.addReport("server.phase_simulate_s", float64(m.Timers["phase_simulate"].TotalNS)/1e9, "s", "lower", int(m.Timers["phase_simulate"].Count), "server /metrics timer over the traced phase")
}

// serverCounters fills the server's result-cache and admission metrics.
func serverCounters(out *outcome, m *exposition) {
	c := m.Counters
	hits := float64(c["result_cache_hits"])
	lookups := hits + float64(c["result_store_hits"]+c["requests_coalesced"]+c["jobs_accepted"])
	out.layer["server.result_cache_hit_ratio"] = ratio(hits, lookups)
	out.layer["server.coalesced"] = float64(c["requests_coalesced"])
	out.layer["server.jobs_rejected"] = float64(c["jobs_rejected"])
}

// regenModel recomputes testdata/predict_model.json: the analytic model
// fitted on the serve-mixed benchmarks around the workload's scale.
func regenModel(ctx context.Context, dir string, workers int) error {
	m, _, err := predict.CalibrateGrid(ctx, predict.CalibrateOptions{
		Scales:  []float64{serveScale, 2 * serveScale},
		Seeds:   []int64{1, 2},
		Only:    serveBenches,
		Models:  []core.Model{core.ModelQueue, core.ModelTTS, core.ModelWO},
		Workers: workers,
	})
	if err != nil {
		return err
	}
	return predict.SaveFile(filepath.Join(dir, "predict_model.json"), m)
}
