package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"syncsim/internal/api"
	"syncsim/internal/client"
	"syncsim/internal/fleet"
	"syncsim/internal/fleet/store"
	"syncsim/internal/server"
)

// The fleet-sweep request space: sweeps over two or three of the
// serve-mixed benchmarks (Qsort is left out for the reason given there),
// a non-empty subset of the models, and one of fleetSeeds generation
// seeds, at serveScale. That is 15 trace identities and 45 cells; the
// first touches simulate, after which nearly every cell is a backend L1
// or store hit. The 420 distinct sweeps outnumber the coordinator's
// merged-sweep LRU (64), so it rarely hits and each sweep pays the
// fan-out, client.Pool, JSON and MergeSweep path.
const (
	fleetSeeds    = 3
	fleetBackends = 2
	// fleetResultCache sizes each backend's result LRU below its share of
	// the 45 cells (about 22), so warm cells keep falling through to the
	// shared store: the warm path reads both the L1 and the L2 tier.
	fleetResultCache = 16
)

// fleetAddrs are the backends' listen addresses. The coordinator's ring
// hashes the backend URLs, so fixed ports give the same cell placement in
// every run: this pair (below the kernel's ephemeral port range) puts
// Grav, FullConn and Topopt on one backend and Pdsa and Pverify on the
// other. A taken port falls back to a random one, and the report says so.
var fleetAddrs = [fleetBackends]string{"127.0.0.1:23101", "127.0.0.1:23104"}

// fleetSpace enumerates every sweep of the request space in a fixed order.
func fleetSpace() []api.SweepRequest {
	var only [][]string
	n := len(serveBenches)
	for mask := 1; mask < 1<<n; mask++ {
		var sel []string
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				sel = append(sel, serveBenches[i])
			}
		}
		if len(sel) == 2 || len(sel) == 3 {
			only = append(only, sel)
		}
	}
	var models [][]string
	for mask := 1; mask < 1<<len(serveModels); mask++ {
		var sel []string
		for i, m := range serveModels {
			if mask&(1<<i) != 0 {
				sel = append(sel, m)
			}
		}
		models = append(models, sel)
	}
	var out []api.SweepRequest
	for seed := int64(1); seed <= fleetSeeds; seed++ {
		for _, o := range only {
			for _, m := range models {
				out = append(out, api.SweepRequest{Scale: serveScale, Seed: seed, Only: o, Models: m})
			}
		}
	}
	return out
}

// fleetStream picks request i of the fleet-sweep stream uniformly from
// the space; it depends only on (seed, i).
func fleetStream(seed int64, i uint64, space int) int {
	return rand.New(rand.NewPCG(uint64(seed), i+1)).IntN(space)
}

// sweepDigest is the hex SHA-256 of a sweep answer after
// fleet.CanonicalizeSweep, the form in which a fleet's merged sweep and a
// single node's answer must agree byte for byte.
func sweepDigest(resp *api.SweepResponse) (string, error) {
	fleet.CanonicalizeSweep(resp)
	data, err := json.Marshal(resp)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// loadFleetRefs reads the single-node digests, keyed by sweep job key.
func loadFleetRefs(dir string) (map[string]string, error) {
	var refs map[string]string
	if err := readJSON(filepath.Join(dir, "fleet_refs.json"), &refs); err != nil {
		return nil, err
	}
	if len(refs) != len(fleetSpace()) {
		return nil, fmt.Errorf("fleet_refs.json has %d sweeps, the request space %d (regenerate with -regen)", len(refs), len(fleetSpace()))
	}
	return refs, nil
}

// regenFleet recomputes testdata/fleet_refs.json: every sweep of the space
// answered by one single-node syncsimd, canonicalised and digested.
func regenFleet(ctx context.Context, dir string, workers int) error {
	srv := server.New(server.Config{Workers: workers, TraceCacheCap: -1, ResultCacheSize: -1, Logf: discardLogf})
	defer srv.Close()
	h := srv.Handler()
	refs := map[string]string{}
	for _, req := range fleetSpace() {
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(string(body))).WithContext(ctx))
		if rr.Code != http.StatusOK {
			return fmt.Errorf("single node answered %d to %s: %s", rr.Code, body, rr.Body)
		}
		var resp api.SweepResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
			return err
		}
		plan, err := server.PlanSweep(req)
		if err != nil {
			return err
		}
		if refs[plan.Key], err = sweepDigest(&resp); err != nil {
			return err
		}
	}
	return writeJSON(filepath.Join(dir, "fleet_refs.json"), refs)
}

// fleetEnv is an in-process fleet: backends sharing a disk store, a
// coordinator over them, and the benchmark's client.
type fleetEnv struct {
	dir      string
	backends []*server.Server
	bhttp    []*httpEnv
	stores   []*tracedStore
	works    []*engineWork
	coord    *fleet.Coordinator
	chttp    *httpEnv
	coordTr  *transport // the coordinator's client.Pool transport
	benchTr  *transport
	client   *client.Client
}

// startFleet builds the fleet. Each backend gets one engine worker, so
// the fleet's server workers total the host's workers (two here).
func startFleet(scratch string, workers int, rec *Recorder) (*fleetEnv, error) {
	dir, err := os.MkdirTemp(scratch, "fleet-store-")
	if err != nil {
		return nil, err
	}
	disk, err := store.OpenDisk(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	env := &fleetEnv{dir: dir}
	perBackend := workers / fleetBackends
	if perBackend < 1 {
		perBackend = 1
	}
	var urls []string
	for i := 0; i < fleetBackends; i++ {
		node := fmt.Sprintf("backend%d", i)
		st := &tracedStore{st: disk, rec: rec, node: node}
		srv := server.New(server.Config{Workers: perBackend, ResultCacheSize: fleetResultCache, Store: st, Logf: discardLogf})
		work := &engineWork{}
		var h http.Handler = srv.Handler()
		if rec != nil {
			h = &middleware{rec: rec, name: "server.handler", node: node, next: h, work: work}
		}
		he, err := startHTTP(h, fleetAddrs[i])
		if err != nil {
			srv.Close()
			env.stop()
			return nil, err
		}
		env.backends = append(env.backends, srv)
		env.bhttp = append(env.bhttp, he)
		env.stores = append(env.stores, st)
		env.works = append(env.works, work)
		urls = append(urls, he.url)
	}
	// The coordinator's fan-out keeps the program's default connection
	// limits; only the benchmark's own callers are bounded to workers.
	env.coordTr = newTransport(rec, 0, true)
	coord, err := fleet.New(fleet.Config{
		Backends: urls,
		Pool:     client.PoolConfig{Client: client.Config{HTTPClient: env.coordTr.client()}},
		Logf:     discardLogf,
	})
	if err != nil {
		env.stop()
		return nil, err
	}
	env.coord = coord
	var h http.Handler = coord.Handler()
	if rec != nil {
		h = &middleware{rec: rec, name: "fleet.handler", node: "coordinator", next: h}
	}
	if env.chttp, err = startHTTP(h, ""); err != nil {
		env.stop()
		return nil, err
	}
	env.benchTr = newTransport(rec, workers, false)
	env.client = client.New(env.chttp.url, client.Config{HTTPClient: env.benchTr.client(), MaxAttempts: 1})
	if !env.client.Healthy(context.Background()) {
		env.stop()
		return nil, fmt.Errorf("fleet coordinator did not answer /healthz")
	}
	return env, nil
}

// stop tears the fleet down front to back and removes its store.
func (e *fleetEnv) stop() {
	if e.chttp != nil {
		e.chttp.stop()
	}
	if e.coord != nil {
		e.coord.Close()
	}
	for i, srv := range e.backends {
		srv.BeginDrain()
		e.bhttp[i].stop()
		srv.Close()
	}
	for _, t := range []*transport{e.coordTr, e.benchTr} {
		if t != nil {
			t.close()
		}
	}
	os.RemoveAll(e.dir) //nolint:errcheck // scratch space under the checkout
}

// fleetPhase is one closed-loop phase of the fleet-sweep workload.
type fleetPhase struct {
	ops     []opRecord
	elapsed time.Duration
	errs    []error
	metrics []*exposition
	status  api.FleetStatusResponse
	env     *fleetEnv
}

func fleetPhaseRun(ctx context.Context, workers int, env *fleetEnv, seed int64, space []api.SweepRequest, keys []string, refs map[string]string, rec *Recorder, dur time.Duration) (*fleetPhase, error) {
	op := func(ctx context.Context, i uint64, clk *opClock) (string, error) {
		k := fleetStream(seed, i, len(space))
		ctx = clk.start(ctx)
		callID := rec.Begin("client.call", clk.root, clk.req)
		resp, err := env.client.Sweep(withSpan(ctx, callID, clk.req), space[k])
		rec.Finish(callID)
		clk.stop()
		if err != nil {
			return "", err
		}
		got, err := sweepDigest(resp)
		if err != nil {
			return "", err
		}
		if got != refs[keys[k]] {
			return "", fmt.Errorf("sweep %s: merged answer differs from the single-node answer", keys[k])
		}
		return "fast", nil
	}
	ph := &fleetPhase{env: env}
	ph.ops, ph.elapsed, ph.errs = closedLoop(workers, time.Now().Add(dur), rec, op)
	for _, b := range env.bhttp {
		m, err := scrape(ctx, env.benchTr.client(), b.url)
		if err != nil {
			return nil, err
		}
		ph.metrics = append(ph.metrics, m)
	}
	ph.status = env.coord.Status()
	return ph, nil
}

// runFleet is the fleet-sweep workload.
func runFleet(ctx context.Context, cfg runConfig) (*outcome, error) {
	space := fleetSpace()
	keys := make([]string, len(space))
	for i, req := range space {
		plan, err := server.PlanSweep(req)
		if err != nil {
			return nil, err
		}
		keys[i] = plan.Key
	}
	var (
		refs map[string]string
		env  *fleetEnv
	)
	setup := func(rec *Recorder) func() (func(), error) {
		return func() (func(), error) {
			r, err := loadFleetRefs(cfg.data)
			if err != nil {
				return nil, err
			}
			e, err := startFleet(cfg.scratch, cfg.workers, rec)
			if err != nil {
				return nil, err
			}
			refs, env = r, e
			return e.stop, nil
		}
	}
	setupS, err := setupMedian(setup(nil))
	if err != nil {
		return nil, err
	}
	out := newOutcome("fleet-sweep", setupS)
	dur := cfg.duration
	if cfg.trace {
		dur /= 2
	}
	pinned := 1.0
	for i, b := range env.bhttp {
		if b.url != "http://"+fleetAddrs[i] {
			pinned = 0
		}
	}
	out.addReport("fleet.ring_pinned", pinned, "bool", "higher", 0, "1 when the backends got their fixed ports, so cell placement is the same as in every other run")
	rss := startRSS()
	plain, err := fleetPhaseRun(ctx, cfg.workers, env, cfg.seed, space, keys, refs, nil, dur)
	rssMiB := rss.finish()
	env.stop()
	if err != nil {
		return nil, err
	}
	phases := []*fleetPhase{plain}
	var traced *fleetPhase
	if cfg.trace {
		if _, err := setup(cfg.rec)(); err != nil {
			return nil, err
		}
		traced, err = fleetPhaseRun(ctx, cfg.workers, env, cfg.seed, space, keys, refs, cfg.rec, dur)
		env.stop()
		if err != nil {
			return nil, err
		}
		phases = append(phases, traced)
	}
	for _, ph := range phases {
		for _, o := range ph.ops {
			var diffs []string
			if o.class == "" {
				diffs = []string{"sweep failed"}
			}
			out.attempt(diffs)
		}
		for _, e := range ph.errs {
			out.diffs = appendDiff(out.diffs, e.Error())
		}
	}

	lat := latencies(plain.ops, "")
	out.e2e["req_per_s"], out.e2e["p50_ms"] = windowed(plain.ops, plain.elapsed)
	var cycles, simNS int64
	for _, m := range plain.metrics {
		cycles += m.Counters["sim_cycles_total"]
		simNS += m.Timers["phase_simulate"].TotalNS
	}
	out.addReport("sim_mcycles_per_s", float64(cycles)/1e6/(float64(simNS)/1e9), "Mcycles/s", "higher", 0, "backends' simulated Mcycles per host second of simulation (cold cells)")
	out.e2e["rss_mib"] = rssMiB
	out.addReport("peak_rss_mib", peakRSSMiB(), "MiB", "lower", 0, "peak resident set of the process")
	out.addReport("req_per_s_overall", float64(len(lat))/plain.elapsed.Seconds(), "1/s", "higher", len(lat), "completed sweeps over the whole phase, closed loop")
	addLatencyReport(out, "sweep", lat, 90)
	if cfg.trace {
		fleetLayers(out, cfg, plain, traced)
	}
	return out, nil
}

// fleetLayers fills the per-layer metrics of a traced fleet-sweep run
// from the traced phase. The coordinator runs each cell under its own
// lifetime context, so its calls to the backends do not carry the
// incoming request's span: each such round trip is parented by job key
// and time (resolveByKey) to the coordinator span whose sweep contains
// that cell and whose interval contains the round trip — the
// earliest-starting one when concurrent sweeps share the cell, since the
// later ones coalesce onto its flight. Store calls carry no context
// either and are parented the same way to their backend's handler span.
func fleetLayers(out *outcome, cfg runConfig, plain, traced *fleetPhase) {
	spans := cfg.rec.Spans()
	resolveByKey(spans, "http.roundtrip", "fleet.handler", false)
	resolveByKey(spans, "store.get", "server.handler", true)
	resolveByKey(spans, "store.put", "server.handler", true)

	sums := spanSums(spans)
	var cycles, steps, iters uint64
	for _, w := range traced.env.works {
		cycles += w.cycles.Load()
		steps += w.steps.Load()
		iters += w.iters.Load()
	}
	out.layer["workload.generate_s"] = sums["workload.generate"].Seconds()
	out.layer["trace.ideal_s"] = sums["trace.ideal"].Seconds()
	out.layer["machine.run_s"] = sums["machine.run"].Seconds()
	out.layer["machine.ns_per_sim_cycle"] = ratio(float64(sums["machine.run"]), float64(cycles))
	out.layer["machine.sim_cycles"] = float64(cycles)
	out.layer["machine.sched_steps"] = float64(steps)
	out.layer["machine.sched_iterations"] = float64(iters)

	merged := &exposition{Counters: map[string]int64{}, Gauges: map[string]int64{}}
	for _, m := range traced.metrics {
		for k, v := range m.Counters {
			merged.Counters[k] += v
		}
		for k, v := range m.Gauges {
			merged.Gauges[k] += v
		}
	}
	hits, misses := float64(merged.Gauges["trace_cache_hit"]), float64(merged.Gauges["trace_cache_miss"])
	out.layer["engine.trace_cache_hits"] = hits
	out.layer["engine.trace_cache_misses"] = misses
	out.layer["engine.trace_cache_hit_ratio"] = ratio(hits, hits+misses)
	engineWorkers := float64(fleetBackends * max(cfg.workers/fleetBackends, 1))
	out.layer["engine.occupancy"] = ratio(float64(sums["engine.task"]), float64(traced.elapsed)*engineWorkers)
	serverCounters(out, merged)
	out.layer["predict.analytic"] = 0
	out.layer["predict.fallback"] = 0
	env := traced.env
	out.layer["client.status_429"] = float64(env.benchTr.count(http.StatusTooManyRequests) + env.coordTr.count(http.StatusTooManyRequests))
	st := traced.status
	out.layer["fleet.hedged"] = float64(st.Hedged)
	out.layer["fleet.hedge_wins"] = float64(st.HedgeWins)
	out.layer["fleet.hedge_useful_ratio"] = ratio(float64(st.HedgeWins), float64(st.Hedged))
	var routed, maxRouted uint64
	for _, b := range st.Backends {
		routed += b.Routed
		maxRouted = max(maxRouted, b.Routed)
	}
	out.layer["fleet.max_backend_share"] = ratio(float64(maxRouted), float64(routed))
	out.layer["fleet.cache_hits"] = float64(st.CacheHits)
	out.layer["fleet.store_hits"] = float64(st.StoreHits)
	out.layer["fleet.coalesced"] = float64(st.Coalesced)
	var gets, storeHits, puts, getNS, putNS int64
	for _, s := range env.stores {
		gets += s.gets.Load()
		storeHits += s.hits.Load()
		puts += s.puts.Load()
		getNS += s.getNS.Load()
		putNS += s.putNS.Load()
	}
	out.layer["store.hit_ratio"] = ratio(float64(storeHits), float64(gets))
	out.layer["trace.overhead_frac"] = meanLatency(traced.ops)/meanLatency(plain.ops) - 1
	out.addAccounting(spans)

	self := selfTimes(spans)
	byName := map[string]float64{}
	byNode := map[string]float64{}
	for _, s := range spans {
		byName[s.Name] += self[s.ID].Seconds()
		if s.Name == "server.handler" {
			byNode[s.Node] += s.Dur().Seconds()
		}
	}
	n := len(traced.ops)
	per := func(v float64) float64 { return ratio(v, float64(n)) }
	out.addReport("client.call_s", per(sums["client.call"].Seconds()), "s", "lower", n, "mean client call per sweep")
	out.addReport("fleet.handler_self_s", per(byName["fleet.handler"]), "s", "lower", n, "mean coordinator span minus the union of its backend round trips, per sweep")
	out.addReport("http.roundtrip_self_s", per(byName["http.roundtrip"]), "s", "lower", n, "mean HTTP self time per sweep, both hops")
	out.addReport("server.handler_self_s", per(byName["server.handler"]), "s", "lower", n, "mean backend handler self time per sweep")
	nodes := make([]string, 0, len(byNode))
	for node := range byNode {
		nodes = append(nodes, node)
	}
	sort.Strings(nodes)
	for _, node := range nodes {
		out.addReport("server.handler_s["+node+"]", byNode[node], "s", "lower", n, "summed handler time on the backend over the traced phase")
	}
	out.addReport("store.get_s", float64(getNS)/1e9, "s", "lower", int(gets), "summed store Get time over the traced phase")
	out.addReport("store.put_s", float64(putNS)/1e9, "s", "lower", int(puts), "summed store Put time over the traced phase")
}
