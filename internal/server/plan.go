package server

import (
	"fmt"

	"syncsim/internal/api"
	"syncsim/internal/engine"
	"syncsim/internal/workload"
)

// This file is the fleet coordinator's window into the server's job
// normalisation: PlanSim and PlanSweep expose — without running anything —
// the exact canonical requests, cache keys and trace routing keys the
// service itself derives, so a coordinator that fans a sweep out cell by
// cell produces requests (and therefore results, and cache entries)
// byte-identical to a single backend executing the whole sweep locally.

// SimPlan is the execution plan of one api.SimRequest.
type SimPlan struct {
	// Request is the canonicalised request (defaults applied, spellings
	// normalised) — the form the service echoes in payloads.
	Request api.SimRequest
	// Key is the job's result-cache key: the in-memory L1 and the shared
	// L2 store both index by it.
	Key string
	// Route is the content-addressed trace key (engine.KeyFor). The
	// fleet ring hashes it so every job over one generated trace lands
	// on the backend that already holds that trace in its engine cache.
	Route engine.Key
}

// PlanSim resolves a api.SimRequest exactly as POST /v1/sim would, returning
// its plan instead of executing it.
func PlanSim(req api.SimRequest) (SimPlan, error) {
	job, err := normalizeSim(req)
	if err != nil {
		return SimPlan{}, err
	}
	return SimPlan{
		Request: job.req,
		Key:     job.key,
		Route:   engine.KeyFor(job.prog, job.params),
	}, nil
}

// SweepCell is one (benchmark × model) cell of a sweep plan: the sim
// request whose payload carries that cell's share of the sweep response.
type SweepCell struct {
	// Bench and Model name the cell in the sweep's outcome matrix.
	Bench string
	Model string
	// Plan is the cell's sim plan. All models of one benchmark share one
	// Route (the model is a machine config, not a trace parameter), so a
	// ring keyed on Route keeps a benchmark's three model runs — and the
	// trace generation they share — on one backend.
	Plan SimPlan
}

// SweepPlan describes how the fleet executes a api.SweepRequest: the
// canonical request and sweep cache key (identical to a single backend's)
// plus the cell grid in suite × model order — the exact order core's
// runMatrix enumerates, which the merger relies on.
type SweepPlan struct {
	Request api.SweepRequest
	Key     string
	Cells   []SweepCell
	// Params is the parameter set every outcome of this sweep echoes
	// (core sets Params on outcomes without applying NCPU defaults —
	// the per-benchmark default NCPU lives only inside the cells).
	Params workload.Params
}

// modelWire maps a canonical model name to the lock/cons pair its machine
// config uses — the same mapping as core.Model.MachineConfig, pinned
// against it by TestPlanMatchesCoreModels.
var modelWire = map[string]struct{ lock, cons string }{
	"queue": {lock: "queue", cons: "sc"},
	"tts":   {lock: "tts", cons: "sc"},
	"wo":    {lock: "queue", cons: "wo"},
}

// PlanSweep resolves a api.SweepRequest exactly as POST /v1/sweep would and
// expands it into its cell grid.
func PlanSweep(req api.SweepRequest) (SweepPlan, error) {
	job, err := normalizeSweep(req)
	if err != nil {
		return SweepPlan{}, err
	}
	plan := SweepPlan{
		Request: job.req,
		Key:     job.key,
		Params:  workload.Params{Scale: job.req.Scale, Seed: job.req.Seed},
	}
	for _, b := range job.sel.Benchmarks() {
		for _, m := range job.req.Models {
			w, ok := modelWire[m]
			if !ok {
				return SweepPlan{}, fmt.Errorf("no wire mapping for model %q", m)
			}
			cell, err := PlanSim(api.SimRequest{
				Bench: b.Program.Name(),
				Scale: job.req.Scale,
				Seed:  job.req.Seed,
				Lock:  w.lock,
				Cons:  w.cons,
			})
			if err != nil {
				return SweepPlan{}, fmt.Errorf("cell %s/%s: %w", b.Program.Name(), m, err)
			}
			plan.Cells = append(plan.Cells, SweepCell{Bench: b.Program.Name(), Model: m, Plan: cell})
		}
	}
	return plan, nil
}
