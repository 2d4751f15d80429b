// Package api is the versioned wire contract of the syncsimd simulation
// service: the request and response bodies of every /v1 endpoint, plus the
// error envelope (status taxonomy, Retry-After and X-Incident-Id header
// semantics) that all endpoints share.
//
// Layering rule: api sits at the bottom of the service stack and imports
// only data-carrying packages (trace, machine, metrics, workload). Both
// sides of the wire depend on it — api ← client and api ← server — and
// never on each other: internal/client must not import internal/server.
// The rule is enforced by TestLayering.
package api

import (
	"syncsim/internal/machine"
	"syncsim/internal/metrics"
	"syncsim/internal/trace"
	"syncsim/internal/workload"
)

// SimRequest is the body of POST /v1/sim: one benchmark under one machine
// configuration. Zero values select the same defaults as the syncsim CLI.
type SimRequest struct {
	// Bench is the benchmark name (Grav, Pdsa, FullConn, Pverify, Qsort,
	// Topopt). Required. GET /v1/capabilities lists the valid names.
	Bench string `json:"bench"`
	// Scale is the workload scale; 0 selects the service default (0.2;
	// 1.0 = paper magnitudes).
	Scale float64 `json:"scale,omitempty"`
	// NCPU is the processor count; 0 selects the benchmark default.
	NCPU int `json:"ncpu,omitempty"`
	// Seed drives generation randomness.
	Seed int64 `json:"seed,omitempty"`
	// Lock is the lock algorithm: queue (default), tts, queue-exact,
	// tts-backoff.
	Lock string `json:"lock,omitempty"`
	// Cons is the consistency model: sc (default) or wo.
	Cons string `json:"cons,omitempty"`
	// Sched is the simulation-loop scheduler: calendar (default), polling,
	// or parallel. All schedulers produce bit-identical results; GET
	// /v1/capabilities lists the valid names.
	Sched string `json:"sched,omitempty"`
	// Workers is accepted for compatibility and ignored: the parallel
	// scheduler has no worker pool. A negative value is still rejected;
	// any other value is canonicalised to 0, so it is neither echoed nor
	// part of the result's cache key.
	//
	// Deprecated: results never depended on it; omit it.
	Workers int `json:"workers,omitempty"`
	// Check enables the runtime invariant checker (~1.5x slower).
	Check bool `json:"check,omitempty"`
}

// SimPayload is the shareable part of a /v1/sim response: one pointer is
// handed to every coalesced waiter and kept in the result cache, so it is
// immutable after construction.
type SimPayload struct {
	Request SimRequest        `json:"request"`
	Ideal   trace.Summary     `json:"ideal"`
	Result  *machine.Result   `json:"result"`
	Report  metrics.RunReport `json:"report"`
}

// SimResponse is the full /v1/sim body: the payload plus how this
// particular request was served.
type SimResponse struct {
	*SimPayload
	// Served tells how the request was satisfied: "run" (this request
	// executed the simulation), "coalesced" (it joined an identical
	// in-flight run), or "cache" (the result cache had it).
	Served string `json:"served"`
}

// SweepRequest is the body of POST /v1/sweep: the full benchmark × model
// matrix (or a subset) in one job.
type SweepRequest struct {
	// Scale is the workload scale; 0 selects the service default (0.2).
	Scale float64 `json:"scale,omitempty"`
	// Seed drives generation randomness.
	Seed int64 `json:"seed,omitempty"`
	// Models restricts the machine models (queue, tts, wo); empty = all.
	Models []string `json:"models,omitempty"`
	// Only restricts the benchmarks by name; empty = all six.
	Only []string `json:"only,omitempty"`
}

// SweepOutcome is one benchmark's share of a sweep response; model results
// are keyed by model name (queue, tts, wo).
type SweepOutcome struct {
	Name    string                     `json:"name"`
	Params  workload.Params            `json:"params"`
	Ideal   trace.Summary              `json:"ideal"`
	Results map[string]*machine.Result `json:"results"`
	Report  *metrics.RunReport         `json:"report,omitempty"`
}

// SweepPayload is the shareable part of a /v1/sweep response.
type SweepPayload struct {
	Request  SweepRequest        `json:"request"`
	Outcomes []SweepOutcome      `json:"outcomes"`
	Report   metrics.SuiteReport `json:"report"`
}

// SweepResponse is the full /v1/sweep body.
type SweepResponse struct {
	*SweepPayload
	Served string `json:"served"`
}

// Predict modes: how POST /v1/predict chooses between the fitted analytic
// model and the cycle-exact simulator.
const (
	// PredictAnalytic answers from the fitted model only (microseconds,
	// never touches the admission queue); 422 if no cell is fitted.
	PredictAnalytic = "analytic"
	// PredictSimulate always runs the cycle-exact simulator through the
	// admission queue, returning the analytic prediction alongside for
	// comparison when a cell is fitted.
	PredictSimulate = "simulate"
	// PredictAuto (the default) answers analytically when a fitted cell
	// exists, its calibrated error bound is within the request's MaxError,
	// and the scale is inside the calibrated envelope; otherwise it falls
	// back to simulation.
	PredictAuto = "auto"
)

// PredictRequest is the body of POST /v1/predict: ask for the expected
// time-to-solution, bus utilisation and lock wait of one benchmark ×
// consistency-model cell at a given scale, without necessarily paying for
// a machine run.
type PredictRequest struct {
	// Bench is the benchmark name. Required.
	Bench string `json:"bench"`
	// Model is the machine model cell: queue (default), tts, or wo — the
	// same three cells the paper evaluates.
	Model string `json:"model,omitempty"`
	// Scale is the workload scale; 0 selects the service default (0.2).
	Scale float64 `json:"scale,omitempty"`
	// Seed drives generation randomness on the simulation fallback path;
	// the analytic model is seed-independent (seed variance is inside its
	// error bound).
	Seed int64 `json:"seed,omitempty"`
	// Mode is one of PredictAnalytic, PredictSimulate, PredictAuto;
	// empty selects auto.
	Mode string `json:"mode,omitempty"`
	// MaxError is the auto mode's relative-error tolerance on predicted
	// run time: a fitted cell whose calibrated bound exceeds it falls back
	// to simulation. 0 selects the server default (0.15).
	MaxError float64 `json:"max_error,omitempty"`
}

// Prediction is the analytic model's answer for one cell at one scale,
// with the calibration-time error bound that tells the caller how far to
// trust it.
type Prediction struct {
	// TTS is the predicted time-to-solution (run time) in machine cycles.
	TTS float64 `json:"tts"`
	// BusUtilization is the predicted bus-busy fraction of the run [0,1].
	BusUtilization float64 `json:"bus_utilization"`
	// LockWaitCycles is the predicted per-CPU mean cycles stalled on
	// lock acquisition and hand-off.
	LockWaitCycles float64 `json:"lock_wait_cycles"`
	// Utilization is the predicted mean per-CPU utilisation [0,1].
	Utilization float64 `json:"utilization"`
	// ErrBound is the cell's calibrated relative error bound on TTS:
	// across the calibration grid, |predicted−simulated|/simulated stayed
	// within it (with margin). The differential harness re-asserts it.
	ErrBound float64 `json:"err_bound"`
	// CellMaxErr and CellMeanErr are the raw relative errors the
	// calibration observed on the grid for this cell.
	CellMaxErr  float64 `json:"cell_max_err"`
	CellMeanErr float64 `json:"cell_mean_err"`
	// Extrapolated reports that the requested scale lies outside the
	// calibrated scale envelope, so ErrBound is not backed by data there.
	Extrapolated bool `json:"extrapolated,omitempty"`
}

// PredictResponse is the full /v1/predict body.
type PredictResponse struct {
	Request PredictRequest `json:"request"`
	// Source tells which engine answered: "analytic" (fitted model, no
	// machine run) or "simulate" (cycle-exact run through the admission
	// queue).
	Source string `json:"source"`
	// Prediction is the analytic answer; present whenever a fitted cell
	// exists, even when Source is "simulate" (for comparison).
	Prediction *Prediction `json:"prediction,omitempty"`
	// Sim is the cycle-exact payload; present only when Source is
	// "simulate".
	Sim *SimPayload `json:"sim,omitempty"`
	// Served mirrors SimResponse.Served on the simulation path
	// (run/coalesced/cache); "model" on the analytic path.
	Served string `json:"served"`
}

// Perturbation kinds accepted by AnalyzeRequest.Perturb. Each names one
// family of what-if variants replayed against the baseline trace.
const (
	// PerturbLock replays under every other lock algorithm.
	PerturbLock = "lock"
	// PerturbCons replays under the other consistency model.
	PerturbCons = "cons"
	// PerturbPackLocks replays with lock words packed four to a cache
	// line instead of one per line (false sharing between locks).
	PerturbPackLocks = "pack-locks"
)

// Perturbations lists every perturbation kind, in the order the analyzer
// applies them.
func Perturbations() []string {
	return []string{PerturbLock, PerturbCons, PerturbPackLocks}
}

// AnalyzeRequest is the body of POST /v1/analyze: record a baseline run of
// one benchmark, replay the identical trace under perturbed lock placement,
// lock algorithm and consistency model, and report which locks' contention
// is an artifact of those choices rather than of the program.
type AnalyzeRequest struct {
	// Bench is the benchmark name. Required.
	Bench string `json:"bench"`
	// Scale is the workload scale; 0 selects the service default (0.2).
	Scale float64 `json:"scale,omitempty"`
	// NCPU is the processor count; 0 selects the benchmark default.
	NCPU int `json:"ncpu,omitempty"`
	// Seed drives generation randomness.
	Seed int64 `json:"seed,omitempty"`
	// Lock is the baseline lock algorithm (queue default); Cons the
	// baseline consistency model (sc default). Perturbations vary around
	// this baseline.
	Lock string `json:"lock,omitempty"`
	Cons string `json:"cons,omitempty"`
	// Perturb restricts the perturbation kinds (see Perturbations);
	// empty = all.
	Perturb []string `json:"perturb,omitempty"`
	// Threshold is the relative drop in a lock's mean transfer latency (or
	// mean waiters at transfer) under a perturbation at which the lock is
	// flagged. 0 selects the service default (0.5).
	Threshold float64 `json:"threshold,omitempty"`
}

// LockContention is one lock's contention profile in one run.
type LockContention struct {
	ID           uint32  `json:"id"`
	Addr         uint32  `json:"addr"`
	Acquisitions uint64  `json:"acquisitions"`
	Transfers    uint64  `json:"transfers"`
	AvgWaiters   float64 `json:"avg_waiters"`     // mean waiters at transfer
	AvgWait      float64 `json:"avg_wait_cycles"` // mean transfer latency, cycles
	AvgHold      float64 `json:"avg_hold_cycles"` // mean hold of transferred acquisitions
	HoldCycles   uint64  `json:"hold_cycles"`     // total hold, completed acquisitions
}

// LockDelta compares one lock between the baseline and one perturbation.
// Drops are relative to the baseline: 1.0 means the quantity vanished,
// negative means it grew.
type LockDelta struct {
	Baseline  LockContention `json:"baseline"`
	Perturbed LockContention `json:"perturbed"`
	// WaitDrop is the relative drop in mean transfer latency.
	WaitDrop float64 `json:"wait_drop"`
	// WaitersDrop is the relative drop in mean waiters at transfer.
	WaitersDrop float64 `json:"waiters_drop"`
	// Flagged marks a lock whose baseline contention essentially
	// disappears under this perturbation (drop ≥ threshold): its cost is
	// unnecessary — an artifact of the perturbed choice, not the program.
	Flagged bool `json:"flagged,omitempty"`
}

// PerturbationResult is the outcome of replaying the baseline trace under
// one variant.
type PerturbationResult struct {
	// Kind is the perturbation family (see Perturbations); Name the
	// concrete variant, e.g. "lock=tts" or "pack-locks".
	Kind string `json:"kind"`
	Name string `json:"name"`
	// RunTime is the perturbed run's completion time in cycles; Speedup
	// is baseline RunTime / perturbed RunTime (>1 = perturbation faster).
	RunTime uint64  `json:"run_time"`
	Speedup float64 `json:"speedup"`
	// Locks holds the per-lock comparison, ordered by lock id.
	Locks []LockDelta `json:"locks"`
}

// AnalyzePayload is the shareable part of a /v1/analyze response.
type AnalyzePayload struct {
	Request AnalyzeRequest `json:"request"`
	// BaselineRunTime is the baseline completion time in cycles, and
	// BaselineLocks its per-lock contention profile, ordered by lock id.
	BaselineRunTime uint64           `json:"baseline_run_time"`
	BaselineLocks   []LockContention `json:"baseline_locks"`
	// ReplayIdentical reports that the baseline, re-run from a fresh
	// clone of the cached trace, reproduced bit-identical results — the
	// determinism guarantee every per-lock delta rests on.
	ReplayIdentical bool `json:"replay_identical"`
	// Perturbations holds one entry per replayed variant.
	Perturbations []PerturbationResult `json:"perturbations"`
	// Flagged summarises every (lock, variant) pair whose contention
	// disappeared, ordered by descending baseline wait.
	Flagged []FlaggedLock `json:"flagged,omitempty"`
}

// FlaggedLock is one entry of the analyzer's headline answer: lock ID's
// contention under the baseline is removable by switching to Variant.
type FlaggedLock struct {
	ID      uint32 `json:"id"`
	Variant string `json:"variant"`
	// BaselineWait and PerturbedWait are mean transfer latencies, cycles.
	BaselineWait  float64 `json:"baseline_wait"`
	PerturbedWait float64 `json:"perturbed_wait"`
	WaitDrop      float64 `json:"wait_drop"`
}

// AnalyzeResponse is the full /v1/analyze body.
type AnalyzeResponse struct {
	*AnalyzePayload
	Served string `json:"served"`
}

// AnalyzeCapability describes the what-if replay endpoint.
type AnalyzeCapability struct {
	// Perturbations lists the accepted AnalyzeRequest.Perturb values.
	Perturbations []string `json:"perturbations"`
	// DefaultThreshold is the flag threshold used when the request
	// leaves Threshold zero.
	DefaultThreshold float64 `json:"default_threshold"`
}

// BenchmarkInfo describes one benchmark in a capabilities response.
type BenchmarkInfo struct {
	// Name is the value SimRequest.Bench / PredictRequest.Bench accepts.
	Name string `json:"name"`
	// NCPU is the benchmark's default processor count (the paper's).
	NCPU int `json:"ncpu"`
}

// PredictCapability describes the fitted analytic model loaded into the
// service, if any.
type PredictCapability struct {
	// Cells is the number of fitted (benchmark × model) cells.
	Cells int `json:"cells"`
	// MinScale and MaxScale bound the calibrated scale envelope.
	MinScale float64 `json:"min_scale"`
	MaxScale float64 `json:"max_scale"`
	// MaxErrBound is the largest calibrated error bound over all cells.
	MaxErrBound float64 `json:"max_err_bound"`
	// Modes lists the accepted PredictRequest.Mode values.
	Modes []string `json:"modes"`
}

// CapabilitiesResponse is the body of GET /v1/capabilities: everything a
// client needs to construct valid requests without hard-coding name lists.
type CapabilitiesResponse struct {
	Benchmarks []BenchmarkInfo `json:"benchmarks"`
	// Models are the evaluated machine-model cells (queue, tts, wo).
	Models []string `json:"models"`
	// Locks are the SimRequest.Lock values.
	Locks []string `json:"locks"`
	// Consistency are the SimRequest.Cons values.
	Consistency []string `json:"consistency"`
	// Schedulers are the simulation-loop scheduler names.
	Schedulers []string `json:"schedulers"`
	// Predict is nil when no fitted model is loaded.
	Predict *PredictCapability `json:"predict,omitempty"`
	// Analyze describes the /v1/analyze endpoint.
	Analyze *AnalyzeCapability `json:"analyze,omitempty"`
}
