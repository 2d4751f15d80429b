package fleet

import (
	"fmt"

	"syncsim/internal/api"
	"syncsim/internal/machine"
	"syncsim/internal/metrics"
	"syncsim/internal/server"
)

// cellResult pairs a plan cell with the sim payload a backend returned
// for it.
type cellResult struct {
	cell    server.SweepCell
	payload *api.SimPayload
}

// MergeSweep folds per-cell sim payloads back into the exact SweepPayload
// a single backend builds for the plan's request. The deterministic
// fields — outcome order (suite × model, the plan's own order), names,
// params, ideal summaries, per-model results, and the cycle/iteration
// counters of every report — are byte-identical to the single-node
// payload by construction; the wall-clock timing fields are sums of the
// cells' (and so differ run to run exactly as a single node's do), which
// is why bit-identity is asserted through CanonicalizeSweep.
func MergeSweep(plan server.SweepPlan, results []cellResult) (*api.SweepPayload, error) {
	if len(results) != len(plan.Cells) {
		return nil, fmt.Errorf("fleet: merge got %d results for a %d-cell plan", len(results), len(plan.Cells))
	}
	p := &api.SweepPayload{Request: plan.Request}
	var suiteRep metrics.SuiteReport
	// byBench maps benchmark → outcome index: appending to p.Outcomes can
	// move the backing array, so pointers into it are re-taken per cell.
	byBench := map[string]int{}
	for _, r := range results {
		if r.payload == nil || r.payload.Result == nil {
			return nil, fmt.Errorf("fleet: cell %s/%s has no result", r.cell.Bench, r.cell.Model)
		}
		// A payload that echoes a different request than the cell asked
		// for is a misrouted or corrupted answer (a buggy backend, a
		// cache collision); merging it would silently poison the sweep's
		// bit-identity, so it fails the sweep instead.
		if r.payload.Request != r.cell.Plan.Request {
			return nil, fmt.Errorf("fleet: cell %s/%s got a payload for the wrong request (%+v)",
				r.cell.Bench, r.cell.Model, r.payload.Request)
		}
		if got := r.payload.Result.Name; got != r.cell.Bench {
			return nil, fmt.Errorf("fleet: cell %s/%s got a result named %q", r.cell.Bench, r.cell.Model, got)
		}
		idx, ok := byBench[r.cell.Bench]
		if !ok {
			idx = len(p.Outcomes)
			byBench[r.cell.Bench] = idx
			p.Outcomes = append(p.Outcomes, api.SweepOutcome{
				Name:    r.cell.Bench,
				Params:  plan.Params,
				Ideal:   r.payload.Ideal,
				Results: map[string]*machine.Result{},
				Report:  &metrics.RunReport{},
			})
		}
		out := &p.Outcomes[idx]
		if _, dup := out.Results[r.cell.Model]; dup {
			return nil, fmt.Errorf("fleet: duplicate cell %s/%s", r.cell.Bench, r.cell.Model)
		}
		out.Results[r.cell.Model] = r.payload.Result
		out.Report.Add(r.payload.Report)
		suiteRep.Tasks++
		suiteRep.CacheHits += int64(r.payload.Report.CacheHits)
		suiteRep.CacheMisses += int64(r.payload.Report.Runs - r.payload.Report.CacheHits)
		suiteRep.Generate += r.payload.Report.Generate
		suiteRep.Analyze += r.payload.Report.Analyze
		suiteRep.Simulate += r.payload.Report.Simulate
		suiteRep.Busy += r.payload.Report.Wall
		suiteRep.SimCycles += r.payload.Report.SimCycles
		suiteRep.SchedIters += r.payload.Report.SchedIters
		suiteRep.SchedSteps += r.payload.Report.SchedSteps
	}
	p.Report = suiteRep
	return p, nil
}

// CanonicalizeSweep zeroes a sweep response's volatile fields in place —
// wall-clock timings, cache-topology counters, worker counts, and the
// served marker — leaving exactly the deterministic content two
// executions of one sweep must agree on bit for bit, whatever the fleet
// topology: request echo, outcome order, params, ideal trace statistics,
// per-model machine results, and the simulated-cycle / scheduler-work
// counters of every report. The CI smoke job pipes both a fleet's and a
// single node's response through `syncsimfleet -normalize` and compares
// bytes.
func CanonicalizeSweep(resp *api.SweepResponse) {
	if resp == nil {
		return
	}
	resp.Served = ""
	if resp.SweepPayload == nil {
		return
	}
	r := &resp.Report
	r.Wall, r.Workers, r.Busy, r.Wait = 0, 0, 0, 0
	r.Generate, r.Analyze, r.Simulate = 0, 0, 0
	r.CacheHits, r.CacheMisses = 0, 0
	for i := range resp.Outcomes {
		if rep := resp.Outcomes[i].Report; rep != nil {
			rep.Generate, rep.Analyze, rep.Simulate, rep.Wall = 0, 0, 0, 0
			rep.CacheHits = 0
		}
	}
}
