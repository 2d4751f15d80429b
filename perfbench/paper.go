package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"syncsim/internal/check"
	"syncsim/internal/core"
	"syncsim/internal/machine"
	"syncsim/internal/metrics"
	"syncsim/internal/tables"
	"syncsim/internal/trace"
	"syncsim/internal/workload"
	"syncsim/internal/workload/addr"
	"syncsim/internal/workload/suite"
)

// paperScale is the paper-tables workload scale: large enough that
// machine.Run is about 90% of the work and every benchmark's cells
// outlast Qsort's fixed generator floor, small enough that a run holds
// several suites to take the median of.
const paperScale = 0.05

// paperInputs is how many generation seeds the paper-tables workload
// draws its suites from. The benchmark keeps reference statistics and
// tables for each of them (testdata/paper_refs.json).
const paperInputs = 8

var paperModels = []core.Model{core.ModelQueue, core.ModelTTS, core.ModelWO}

// paperInput returns the generation seed of the i-th suite of a run with
// the given benchmark seed: consecutive suites walk the reference seeds
// 1..paperInputs starting at an offset the benchmark seed picks.
func paperInput(seed int64, i int) int64 {
	k := (seed + int64(i)) % paperInputs
	if k < 0 {
		k += paperInputs
	}
	return k + 1
}

// paperRefs is the reference the paper-tables workload checks every
// suite against: per generation seed, the golden statistics of every
// benchmark (derived as check.Compute derives the repository's goldens)
// and the SHA-256 of the rendered tables.
type paperRefs struct {
	Scale  float64             `json:"scale"`
	Inputs map[string]paperRef `json:"inputs"`
}

type paperRef struct {
	Goldens      []*check.Golden `json:"goldens"`
	TablesSHA256 string          `json:"tables_sha256"`
}

func loadPaperRefs(dir string) (*paperRefs, error) {
	var refs paperRefs
	if err := readJSON(filepath.Join(dir, "paper_refs.json"), &refs); err != nil {
		return nil, err
	}
	if refs.Scale != paperScale || len(refs.Inputs) != paperInputs {
		return nil, fmt.Errorf("paper_refs.json is for scale %g with %d inputs, want %g with %d (regenerate with -regen)",
			refs.Scale, len(refs.Inputs), paperScale, paperInputs)
	}
	return &refs, nil
}

// tablesDigest is the hex SHA-256 of a rendered table text.
func tablesDigest(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}

// checkSuite compares one suite's outcomes and rendered tables with the
// reference for its generation seed and returns the differences.
func checkSuite(refs *paperRefs, input int64, outs []*core.Outcome, text string) []string {
	ref, ok := refs.Inputs[strconv.FormatInt(input, 10)]
	if !ok {
		return []string{fmt.Sprintf("no reference for generation seed %d", input)}
	}
	var diffs []string
	if len(outs) != len(ref.Goldens) {
		return []string{fmt.Sprintf("%d outcomes, reference has %d", len(outs), len(ref.Goldens))}
	}
	for i, o := range outs {
		for _, d := range check.Compare(check.Compute(o), ref.Goldens[i]) {
			diffs = append(diffs, o.Name+": "+d)
		}
	}
	if got := tablesDigest(text); got != ref.TablesSHA256 {
		diffs = append(diffs, fmt.Sprintf("rendered tables sha256 %s, reference %s", got, ref.TablesSHA256))
	}
	return diffs
}

// paperSuite runs one untraced suite exactly as cmd/tables does — the
// engine over every benchmark × model, then tables.All — and returns the
// outcomes, the rendered text, the engine's report and the wall time to
// the rendered tables.
func paperSuite(ctx context.Context, input int64, workers int) ([]*core.Outcome, string, metrics.SuiteReport, time.Duration, error) {
	var rep metrics.SuiteReport
	start := time.Now()
	outs, err := core.RunSuiteCtx(ctx, core.Options{
		Scale:    paperScale,
		Seed:     input,
		Workers:  workers,
		OnReport: func(r metrics.SuiteReport) { rep = r },
	})
	if err != nil {
		return nil, "", rep, 0, err
	}
	text := tables.All(outs)
	return outs, text, rep, time.Since(start), nil
}

// runPaper is the paper-tables workload.
func runPaper(ctx context.Context, cfg runConfig) (*outcome, error) {
	var refs *paperRefs
	setup, err := setupMedian(func() (func(), error) {
		r, err := loadPaperRefs(cfg.data)
		refs = r
		return func() {}, err
	})
	if err != nil {
		return nil, err
	}
	out := newOutcome("paper-tables", setup)
	workers := cfg.workers
	deadline := time.Now().Add(cfg.duration)

	var walls []float64
	var cycles uint64
	var simulate time.Duration
	var first metrics.SuiteReport
	var layers paperLayers
	var overhead []float64
	rss := startRSS()
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		input := paperInput(cfg.seed, i)
		// Start every suite on a collected heap, as the tables command
		// starts in a fresh process, so the previous suite's garbage is
		// not collected inside this one's time.
		runtime.GC()
		outs, text, rep, wall, err := paperSuite(ctx, input, workers)
		if err != nil {
			return nil, err
		}
		out.attempt(checkSuite(refs, input, outs, text))
		walls = append(walls, wall.Seconds())
		cycles += rep.SimCycles
		simulate += rep.Simulate
		if i == 0 {
			first = rep
		}
		if !cfg.trace {
			continue
		}
		// Traced: pair the untraced suite with a traced pass over the same
		// input, so the pass's overhead is measured against its twin.
		runtime.GC()
		tp, err := paperTracedPass(ctx, cfg.rec, input, workers)
		if err != nil {
			return nil, err
		}
		out.attempt(checkSuite(refs, input, tp.outs, tp.text))
		overhead = append(overhead, tp.wall.Seconds()/wall.Seconds()-1)
		layers.add(tp.layers)
	}

	out.e2e["p50_ms"] = median(walls) * 1000
	out.e2e["req_per_s"] = float64(len(walls)) / sum(walls)
	out.addReport("sim_mcycles_per_s", float64(cycles)/1e6/simulate.Seconds(), "Mcycles/s", "higher", len(walls), "simulated Mcycles per host second of simulation")
	out.e2e["rss_mib"] = rss.finish()
	out.addReport("peak_rss_mib", peakRSSMiB(), "MiB", "lower", 0, "peak resident set of the process")
	out.addReport("wall_s", median(walls), "s", "lower", len(walls), "time to the rendered tables; median over suites")
	out.addReport("sim_mcycles_per_wall_s", float64(cycles)/1e6/sum(walls), "Mcycles/s", "higher", len(walls), "simulated Mcycles per host second of suite wall time")

	if cfg.trace {
		n := float64(layers.passes)
		out.layer["workload.generate_s"] = layers.generate.Seconds() / n
		out.layer["trace.ideal_s"] = layers.ideal.Seconds() / n
		out.layer["machine.run_s"] = layers.run.Seconds() / n
		out.layer["machine.ns_per_sim_cycle"] = float64(layers.run) / float64(layers.cycles)
		// Exact counts come from the first pass alone, so they repeat
		// exactly for a given seed whatever the number of passes.
		out.layer["machine.sim_cycles"] = float64(first.SimCycles)
		out.layer["machine.sched_steps"] = float64(first.SchedSteps)
		out.layer["machine.sched_iterations"] = float64(first.SchedIters)
		out.layer["engine.trace_cache_hits"] = float64(first.CacheHits)
		out.layer["engine.trace_cache_misses"] = float64(first.CacheMisses)
		out.layer["engine.trace_cache_hit_ratio"] = first.CacheHitRate()
		out.layer["engine.occupancy"] = ratio(float64(first.Busy), float64(first.Wall)*float64(first.Workers))
		out.layer["trace.overhead_frac"] = median(overhead)
		busy := layers.generate + layers.ideal + layers.run + layers.clone + layers.render
		unattributed := median(walls) - busy.Seconds()/n/float64(workers)
		out.addReport("trace.replay_s", layers.replay.Seconds()/n, "s", "lower", layers.passes, "draining reset trace sets with no simulation: the decode share of machine.run_s")
		out.addReport("tables.render_s", layers.render.Seconds()/n, "s", "lower", layers.passes, "tables.All on the traced outcomes")
		out.addReport("core.unattributed_s", unattributed, "s", "lower", layers.passes, "untraced wall_s minus layer busy time divided by workers")
		for _, k := range []string{"server.result_cache_hit_ratio", "server.coalesced", "server.jobs_rejected",
			"predict.analytic", "predict.fallback", "client.status_429", "fleet.hedged", "fleet.hedge_wins",
			"fleet.hedge_useful_ratio", "fleet.max_backend_share", "fleet.cache_hits", "fleet.store_hits",
			"fleet.coalesced", "store.hit_ratio"} {
			out.layer[k] = 0 // no server, client, fleet or store code runs
		}
		out.addAccounting(cfg.rec.Spans())
	}
	return out, nil
}

// paperLayers sums a traced pass's layer times.
type paperLayers struct {
	passes                                      int
	generate, ideal, clone, run, render, replay time.Duration
	cycles                                      uint64
}

// add folds another pass into l.
func (l *paperLayers) add(o paperLayers) {
	l.passes += o.passes
	l.generate += o.generate
	l.ideal += o.ideal
	l.clone += o.clone
	l.run += o.run
	l.render += o.render
	l.replay += o.replay
	l.cycles += o.cycles
}

type tracedPass struct {
	outs   []*core.Outcome
	text   string
	wall   time.Duration
	layers paperLayers
}

// paperTracedPass drives the same 18 cells as the engine does, on the
// same number of goroutines, timing each layer's public call: trace
// generation, ideal analysis, the per-run trace clone, machine.Run and
// table rendering. Spans go under one "bench.suite" root. After the pass
// it drains every cell's trace once more without simulating, which times
// the decode share of machine.Run (trace.replay_s) outside the root.
func paperTracedPass(ctx context.Context, rec *Recorder, input int64, workers int) (*tracedPass, error) {
	benches := suite.All()
	params := workload.Params{Scale: paperScale, Seed: input}
	type traced struct {
		once  sync.Once
		set   *trace.Set
		ideal trace.Summary
		err   error
	}
	entries := make([]traced, len(benches))
	results := make([][]*machine.Result, len(benches))
	for i := range results {
		results[i] = make([]*machine.Result, len(paperModels))
	}
	var mu sync.Mutex
	var l paperLayers
	timed := func(root int, name string, d *time.Duration, fn func() error) error {
		t0 := time.Now()
		id := rec.Begin(name, root, 1)
		err := fn()
		rec.Finish(id)
		mu.Lock()
		*d += time.Since(t0)
		mu.Unlock()
		return err
	}

	start := time.Now()
	root := rec.Begin("bench.suite", 0, 1)
	feed := make(chan [2]int)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for cell := range feed {
				if errs[w] != nil {
					continue
				}
				bi, mi := cell[0], cell[1]
				e := &entries[bi]
				e.once.Do(func() {
					e.err = timed(root, "workload.generate", &l.generate, func() error {
						set, err := benches[bi].Program.Generate(params)
						e.set = set
						return err
					})
					if e.err != nil {
						return
					}
					e.err = timed(root, "trace.ideal", &l.ideal, func() error {
						e.ideal = trace.AnalyzeIdeal(e.set, addr.Shared).Summarize()
						return trace.Reset(e.set)
					})
				})
				if e.err != nil {
					errs[w] = e.err
					continue
				}
				var clone *trace.Set
				if err := timed(root, "engine.clone", &l.clone, func() (err error) {
					clone, err = e.set.Clone()
					return err
				}); err != nil {
					errs[w] = err
					continue
				}
				cfg := paperModels[mi].MachineConfig(machine.DefaultConfig())
				errs[w] = timed(root, "machine.run", &l.run, func() error {
					res, err := machine.RunCtx(ctx, clone, cfg)
					results[bi][mi] = res
					return err
				})
			}
		}(w)
	}
	for bi := range benches {
		for mi := range paperModels {
			feed <- [2]int{bi, mi}
		}
	}
	close(feed)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	outs := make([]*core.Outcome, len(benches))
	for bi, b := range benches {
		outs[bi] = &core.Outcome{
			Name: b.Program.Name(), Paper: b.Paper, Params: params,
			Ideal: entries[bi].ideal, Results: map[core.Model]*machine.Result{},
		}
		for mi, m := range paperModels {
			outs[bi].Results[m] = results[bi][mi]
			l.cycles += results[bi][mi].RunTime
		}
	}
	var text string
	timed(root, "tables.render", &l.render, func() error { //nolint:errcheck // rendering cannot fail
		text = tables.All(outs)
		return nil
	})
	rec.Finish(root)
	wall := time.Since(start)

	t0 := time.Now()
	for i := range entries {
		e := &entries[i]
		for range paperModels {
			clone, err := e.set.Clone()
			if err != nil {
				return nil, err
			}
			for _, src := range clone.Sources {
				for {
					if _, ok := src.Next(); !ok {
						break
					}
				}
			}
		}
	}
	l.replay = time.Since(t0)
	l.passes = 1
	return &tracedPass{outs: outs, text: text, wall: wall, layers: l}, nil
}

// regenPaper recomputes testdata/paper_refs.json from the engine.
func regenPaper(ctx context.Context, dir string, workers int) error {
	refs := paperRefs{Scale: paperScale, Inputs: map[string]paperRef{}}
	for in := int64(1); in <= paperInputs; in++ {
		outs, text, _, _, err := paperSuite(ctx, in, workers)
		if err != nil {
			return err
		}
		ref := paperRef{TablesSHA256: tablesDigest(text)}
		for _, o := range outs {
			ref.Goldens = append(ref.Goldens, check.Compute(o))
		}
		refs.Inputs[strconv.FormatInt(in, 10)] = ref
	}
	return writeJSON(filepath.Join(dir, "paper_refs.json"), refs)
}

// readJSON decodes a JSON file.
func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// writeJSON writes v as indented JSON.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
