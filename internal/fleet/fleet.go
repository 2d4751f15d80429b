package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sync"
	"time"

	"syncsim/internal/api"
	"syncsim/internal/client"
	"syncsim/internal/fleet/store"
	"syncsim/internal/flight"
	"syncsim/internal/lru"
	"syncsim/internal/metrics"
	"syncsim/internal/server"
)

// Config parameterises a Coordinator. Zero values select production
// defaults.
type Config struct {
	// Backends are the syncsimd base URLs the fleet shards over.
	// Required, at least one; more can join and leave at runtime via
	// POST /v1/fleet/join and /v1/fleet/leave.
	Backends []string
	// Replicas is the virtual-node count per backend on the hash ring;
	// 0 selects DefaultReplicas.
	Replicas int
	// Pool configures the per-backend clients and circuit breakers.
	Pool client.PoolConfig
	// Store, when non-nil, is the shared L2 result cache (the same
	// store the backends mount via syncsimd -store): sweep payloads and
	// per-cell sim payloads are looked up before routing and written
	// back after merging.
	Store store.Store
	// CellTimeout bounds one cell's end-to-end attempts on one backend;
	// 0 selects 2m (the backend's own default job timeout).
	CellTimeout time.Duration
	// HealthInterval is the /healthz probe period (re-jittered ±20%
	// every cycle); 0 selects 5s.
	HealthInterval time.Duration
	// HedgeAfter is the static latency budget before a cell is
	// speculatively re-issued to the next ring-order backend, used until
	// a backend's windowed latency digest has enough samples to supply
	// its observed p95 instead. 0 selects 500ms; negative disables
	// hedging entirely.
	HedgeAfter time.Duration
	// HedgeMin floors the observed-p95 hedge budget so a streak of
	// cache-hit-fast responses cannot drive the budget toward zero and
	// hedge every request. 0 selects 25ms.
	HedgeMin time.Duration
	// DrainTimeout bounds how long a leave waits for in-flight attempts
	// on the departing backend; 0 selects 30s.
	DrainTimeout time.Duration
	// Quotas, when non-empty, enforces per-tenant admission budgets on
	// /v1/sweep and /v1/sim (token bucket per sanitized tenant label;
	// over-quota answers 429 with a tenant-scoped Retry-After).
	Quotas map[string]server.Quota
	// QuotaNow is the quota clock; nil selects time.Now (tests inject a
	// fake).
	QuotaNow func() time.Time
	// ResultCacheSize bounds the coordinator's merged-sweep L1; 0
	// selects 64; negative disables it.
	ResultCacheSize int
	// CellConcurrency bounds cells in flight per sweep; 0 selects
	// 2 × len(Backends).
	CellConcurrency int
	// MaxBodyBytes caps request bodies; 0 selects 1 MiB.
	MaxBodyBytes int64
	// Logf receives operational log lines; nil selects log.Printf.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.CellTimeout == 0 {
		c.CellTimeout = 2 * time.Minute
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = 5 * time.Second
	}
	if c.HedgeAfter == 0 {
		c.HedgeAfter = 500 * time.Millisecond
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = 25 * time.Millisecond
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.ResultCacheSize == 0 {
		c.ResultCacheSize = 64
	}
	if c.CellConcurrency <= 0 {
		c.CellConcurrency = 2 * len(c.Backends)
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// backendStats are one backend's routing counters (see api.FleetBackend).
type backendStats struct {
	routed     metrics.Counter
	retried    metrics.Counter
	failedOver metrics.Counter
	hedged     metrics.Counter
}

// Coordinator is the fleet front end: it owns the epoch-versioned
// membership ring, the per-backend client pool with circuit breakers and
// latency digests, the health prober, the cell single-flight, a
// merged-sweep L1 and (optionally) the shared L2 store, and serves the
// same /v1 job surface as a single syncsimd plus the fleet admin plane.
type Coordinator struct {
	cfg     Config
	members *membership
	pool    *client.Pool
	health  *healthTracker
	cache   *lru.Cache[string, *api.SweepPayload]
	store   store.Store
	flights flight.Group[*api.SimPayload]
	quota   *server.QuotaSet

	statsMu sync.Mutex
	stats   map[string]*backendStats

	sweeps    metrics.Counter
	cells     metrics.Counter
	cacheHits metrics.Counter
	storeHits metrics.Counter
	coalesced metrics.Counter
	hedged    metrics.Counter
	hedgeWins metrics.Counter
	throttled metrics.Counter

	// baseCtx outlives any single request: coalesced cell jobs run under
	// it so a leader's disconnect does not kill the work its followers
	// still wait on. Close cancels it.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	logf func(format string, args ...any)
	mux  *http.ServeMux
}

// New builds a Coordinator and starts its health prober. Close it when
// done.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	ring, err := NewRing(cfg.Backends, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	baseCtx, baseCancel := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:        cfg,
		members:    newMembership(ring),
		pool:       client.NewPool(ring.Members(), cfg.Pool),
		cache:      lru.New[string, *api.SweepPayload](cfg.ResultCacheSize),
		store:      cfg.Store,
		quota:      server.NewQuotaSet(cfg.Quotas, cfg.QuotaNow),
		stats:      make(map[string]*backendStats, len(ring.Members())),
		baseCtx:    baseCtx,
		baseCancel: baseCancel,
		logf:       cfg.Logf,
	}
	for _, b := range ring.Members() {
		c.stats[b] = &backendStats{}
	}
	c.health = newHealthTracker(ring.Members(), cfg.HealthInterval)
	c.health.start()

	c.mux = http.NewServeMux()
	c.mux.HandleFunc("/v1/sweep", c.handleSweep)
	c.mux.HandleFunc("/v1/sim", c.handleSim)
	c.mux.HandleFunc("/v1/capabilities", c.handleCapabilities)
	c.mux.HandleFunc("/v1/fleet/status", c.handleStatus)
	c.mux.HandleFunc("/v1/fleet/join", c.handleJoin)
	c.mux.HandleFunc("/v1/fleet/leave", c.handleLeave)
	c.mux.HandleFunc("/healthz", c.handleHealthz)
	return c, nil
}

// Handler returns the coordinator's HTTP handler.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Ring exposes the current routing ring (tests pick their mid-sweep
// victim from it so the kill deterministically owns cells).
func (c *Coordinator) Ring() *Ring { return c.members.load().ring }

// Epoch exposes the current membership epoch.
func (c *Coordinator) Epoch() uint64 { return c.members.load().epoch }

// Close stops the health prober and cancels any coalesced jobs still
// running under the coordinator's lifetime context.
func (c *Coordinator) Close() {
	c.health.stopProbes()
	c.baseCancel()
}

// statsFor returns the backend's counter row, creating it on first use —
// membership is dynamic, so rows appear when members do.
func (c *Coordinator) statsFor(b string) *backendStats {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	st, ok := c.stats[b]
	if !ok {
		st = &backendStats{}
		c.stats[b] = st
	}
	return st
}

func (c *Coordinator) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

// writeCellError relays a cell failure: a terminal server answer keeps
// its status and message (the fleet is a transparent proxy for request
// bugs); everything else — no backend reachable, budgets exhausted — is
// the fleet's own 502.
func (c *Coordinator) writeCellError(w http.ResponseWriter, err error) {
	var ae *client.APIError
	if errors.As(err, &ae) && !ae.Retryable() {
		http.Error(w, ae.Message, ae.Status)
		return
	}
	http.Error(w, err.Error(), http.StatusBadGateway)
}

func (c *Coordinator) decodeBody(w http.ResponseWriter, r *http.Request, dst any) error {
	r.Body = http.MaxBytesReader(w, r.Body, c.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

// jobContext derives the context cells run under: the caller's, with its
// tenant identity forwarded so backends attribute the fanned-out work.
func jobContext(r *http.Request) context.Context {
	ctx := r.Context()
	if t := r.Header.Get(api.HeaderTenant); t != "" {
		ctx = client.WithTenant(ctx, t)
	}
	return ctx
}

// admitTenant enforces the per-tenant quota at the coordinator's front
// door, before any planning or routing: an over-quota tenant's request
// spends nothing but its own bucket. Tenants without a configured quota
// (including the untenanted) pass through untouched.
func (c *Coordinator) admitTenant(w http.ResponseWriter, r *http.Request) bool {
	tenant := server.TenantLabel(r.Header.Get(api.HeaderTenant))
	wait, ok := c.quota.Admit(tenant)
	if !ok {
		c.throttled.Inc()
		w.Header().Set(api.HeaderRetryAfter, server.QuotaRetryAfter(wait))
		http.Error(w, fmt.Sprintf("tenant %q over quota; retry later", tenant), http.StatusTooManyRequests)
	}
	return ok
}

func (c *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if !c.admitTenant(w, r) {
		return
	}
	var req api.SweepRequest
	if err := c.decodeBody(w, r, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	plan, err := server.PlanSweep(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.sweeps.Inc()

	if p, ok := c.cache.Get(plan.Key); ok {
		c.cacheHits.Inc()
		c.writeJSON(w, http.StatusOK, api.SweepResponse{SweepPayload: p, Served: "cache"})
		return
	}
	if p := c.sweepFromStore(plan.Key); p != nil {
		c.writeJSON(w, http.StatusOK, api.SweepResponse{SweepPayload: p, Served: "store"})
		return
	}

	payload, err := c.runSweep(jobContext(r), plan)
	if err != nil {
		c.writeCellError(w, err)
		return
	}
	c.cache.Put(plan.Key, payload)
	c.storePut(plan.Key, payload)
	c.writeJSON(w, http.StatusOK, api.SweepResponse{SweepPayload: payload, Served: "run"})
}

// runSweep fans the plan's cells across the ring and merges the results.
// One failed cell fails the sweep (after its own ring-order failover,
// hedging, and epoch re-route): a partial sweep would not be
// bit-identical to anything.
func (c *Coordinator) runSweep(ctx context.Context, plan server.SweepPlan) (*api.SweepPayload, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]cellResult, len(plan.Cells))
	errs := make([]error, len(plan.Cells))
	sem := make(chan struct{}, c.cfg.CellConcurrency)
	var wg sync.WaitGroup
	for i, cell := range plan.Cells {
		wg.Add(1)
		go func(i int, cell server.SweepCell) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				errs[i] = ctx.Err()
				return
			}
			payload, err := c.runCell(ctx, cell.Plan)
			if err != nil {
				errs[i] = fmt.Errorf("cell %s/%s: %w", cell.Bench, cell.Model, err)
				cancel() // no point finishing a sweep that cannot merge
				return
			}
			results[i] = cellResult{cell: cell, payload: payload}
		}(i, cell)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return MergeSweep(plan, results)
}

// runCell serves one cell: shared store first, then — deduplicated
// through the cell single-flight — the hedged race over the ring's
// failover order (see routeCell).
func (c *Coordinator) runCell(ctx context.Context, plan server.SimPlan) (*api.SimPayload, error) {
	c.cells.Inc()
	if p := c.cellFromStore(plan.Key); p != nil {
		return p, nil
	}
	// The race runs under the coordinator's lifetime, carrying the
	// leader's tenant so backends attribute the fanned-out work.
	jobCtx := c.baseCtx
	if tenant, ok := client.TenantFrom(ctx); ok {
		jobCtx = client.WithTenant(jobCtx, tenant)
	}
	payload, shared, err := c.flights.Do(ctx, jobCtx, plan.Key, func(jobCtx context.Context) (*api.SimPayload, error) {
		return c.routeCell(jobCtx, plan)
	})
	if shared {
		c.coalesced.Inc()
	}
	return payload, err
}

// routeCell routes one cell under the membership epoch it loads at
// entry: the failover order is that epoch's ring order, health-filtered
// (falling back to the full order when every backend looks down — probes
// can be stale; the circuit breaker still guards the actual call). Only
// after that epoch's order is exhausted does it look again: if the
// membership advanced meanwhile, the cell re-routes once per new epoch —
// so a sweep in flight across a join or leave finishes on whichever ring
// can actually serve it, and the loop terminates because the epoch
// strictly increases.
func (c *Coordinator) routeCell(ctx context.Context, plan server.SimPlan) (*api.SimPayload, error) {
	rs := c.members.load()
	for {
		order := rs.ring.Order(RouteKey(plan.Route))
		candidates := make([]string, 0, len(order))
		for _, b := range order {
			if c.health.ok(b) {
				candidates = append(candidates, b)
			}
		}
		if len(candidates) == 0 {
			candidates = order
		}
		payload, err := c.raceCell(ctx, plan, candidates)
		if err == nil {
			return payload, nil
		}
		var ae *client.APIError
		if errors.As(err, &ae) && !ae.Retryable() {
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, err
		}
		next := c.members.load()
		if next.epoch == rs.epoch {
			return nil, err
		}
		c.logf("fleet: cell %s exhausted epoch %d, re-routing on epoch %d", plan.Key, rs.epoch, next.epoch)
		rs = next
	}
}

func (c *Coordinator) handleSim(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if !c.admitTenant(w, r) {
		return
	}
	var req api.SimRequest
	if err := c.decodeBody(w, r, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	plan, err := server.PlanSim(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	payload, err := c.runCell(jobContext(r), plan)
	if err != nil {
		c.writeCellError(w, err)
		return
	}
	c.writeJSON(w, http.StatusOK, api.SimResponse{SimPayload: payload, Served: "run"})
}

// sweepFromStore / cellFromStore / storePut mirror the server's L2 seam.
func (c *Coordinator) sweepFromStore(key string) *api.SweepPayload {
	return storeGet[api.SweepPayload](c, key)
}

func (c *Coordinator) cellFromStore(key string) *api.SimPayload {
	return storeGet[api.SimPayload](c, key)
}

func storeGet[P any](c *Coordinator, key string) *P {
	if c.store == nil {
		return nil
	}
	blob, ok := c.store.Get(key)
	if !ok {
		return nil
	}
	p := new(P)
	if err := json.Unmarshal(blob, p); err != nil {
		c.logf("fleet: L2 store entry for %q is damaged: %v", key, err)
		return nil
	}
	c.storeHits.Inc()
	return p
}

func (c *Coordinator) storePut(key string, payload any) {
	if c.store == nil {
		return
	}
	blob, err := json.Marshal(payload)
	if err != nil {
		return
	}
	c.store.Put(key, blob)
}

// handleCapabilities proxies GET /v1/capabilities from the first backend
// that answers, in ring-member order: the fleet's vocabulary is its
// backends' (they are replicas of one service). The coordinator routes
// neither /v1/predict nor /v1/analyze, so it strips both from the answer
// rather than send a discovering client to a 404.
func (c *Coordinator) handleCapabilities(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var last error
	for _, b := range c.members.load().ring.Members() {
		cl, err := c.pool.Acquire(b)
		if err != nil {
			last = err
			continue
		}
		ctx, cancel := context.WithTimeout(r.Context(), 10*time.Second)
		caps, err := cl.Capabilities(ctx)
		cancel()
		c.pool.Report(b, err)
		if err == nil {
			caps.Predict, caps.Analyze = nil, nil
			c.writeJSON(w, http.StatusOK, caps)
			return
		}
		last = err
	}
	http.Error(w, fmt.Sprintf("no backend answered capabilities: %v", last), http.StatusBadGateway)
}

// Status snapshots the fleet counters (also served on /v1/fleet/status).
func (c *Coordinator) Status() api.FleetStatusResponse {
	rs := c.members.load()
	resp := api.FleetStatusResponse{
		Epoch:     rs.epoch,
		Replicas:  rs.ring.Replicas(),
		Sweeps:    uint64(c.sweeps.Value()),
		Cells:     uint64(c.cells.Value()),
		CacheHits: uint64(c.cacheHits.Value()),
		StoreHits: uint64(c.storeHits.Value()),
		Coalesced: uint64(c.coalesced.Value()),
		Hedged:    uint64(c.hedged.Value()),
		HedgeWins: uint64(c.hedgeWins.Value()),
		Throttled: uint64(c.throttled.Value()),
	}
	for _, b := range rs.ring.Members() {
		st := c.statsFor(b)
		var p95ms int64
		if p95, ok := c.pool.LatencyP95(b); ok {
			p95ms = p95.Milliseconds()
		}
		resp.Backends = append(resp.Backends, api.FleetBackend{
			URL:        b,
			Healthy:    c.health.ok(b),
			Circuit:    string(c.pool.State(b)),
			Routed:     uint64(st.routed.Value()),
			Retried:    uint64(st.retried.Value()),
			FailedOver: uint64(st.failedOver.Value()),
			Hedged:     uint64(st.hedged.Value()),
			P95Millis:  p95ms,
		})
	}
	return resp
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	c.writeJSON(w, http.StatusOK, c.Status())
}

// handleHealthz: the fleet is healthy while at least one backend is.
func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if !c.health.anyHealthy() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"no healthy backends"}`)
		return
	}
	fmt.Fprintln(w, `{"status":"ok"}`)
}
