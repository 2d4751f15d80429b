// Package core orchestrates the paper's experiments end to end: generate a
// benchmark trace, compute its ideal statistics (Tables 1-2), and simulate
// it under the three machine configurations the paper evaluates —
// sequential consistency with queuing locks (Tables 3-4), sequential
// consistency with test&test&set (Tables 5-6), and weak ordering with
// queuing locks (Tables 7-8).
//
// Runs execute on the concurrent experiment engine (internal/engine): the
// (benchmark × model) matrix is scheduled over a bounded worker pool, each
// generated trace is memoised and replayed for every model — exactly as
// the paper drives one trace through several simulated machines — and
// long runs are cancellable through a context.
package core

import (
	"context"
	"fmt"

	"syncsim/internal/chaos"
	"syncsim/internal/engine"
	"syncsim/internal/locks"
	"syncsim/internal/machine"
	"syncsim/internal/metrics"
	"syncsim/internal/stats"
	"syncsim/internal/trace"
	"syncsim/internal/workload"
	"syncsim/internal/workload/suite"
)

// Model names one of the paper's three evaluated machine configurations.
type Model int

const (
	// ModelQueue: sequential consistency + queuing locks (the baseline
	// of Tables 3-4).
	ModelQueue Model = iota
	// ModelTTS: sequential consistency + test&test&set (Tables 5-6).
	ModelTTS
	// ModelWO: weak ordering + queuing locks (Tables 7-8).
	ModelWO

	numModels
)

var modelNames = [numModels]string{"queue", "tts", "wo"}

func (m Model) String() string {
	if int(m) < len(modelNames) {
		return modelNames[m]
	}
	return fmt.Sprintf("Model(%d)", int(m))
}

// MachineConfig returns the machine configuration of a model, derived from
// a base configuration (typically machine.DefaultConfig()).
func (m Model) MachineConfig(base machine.Config) machine.Config {
	cfg := base
	switch m {
	case ModelQueue:
		cfg.Lock = locks.Queue
		cfg.Consistency = machine.SeqConsistent
	case ModelTTS:
		cfg.Lock = locks.TTS
		cfg.Consistency = machine.SeqConsistent
	case ModelWO:
		cfg.Lock = locks.Queue
		cfg.Consistency = machine.WeakOrdering
	}
	return cfg
}

// Outcome holds everything measured for one benchmark: its ideal trace
// statistics and one simulation result per requested model.
type Outcome struct {
	Name    string
	Paper   suite.Ideal
	Params  workload.Params
	Ideal   trace.Summary
	Results map[Model]*machine.Result
	// Report breaks down where the benchmark's wall time went, summed
	// over its model runs. Nil unless Options.Metrics was set.
	Report *metrics.RunReport
}

// Decomposition returns the §3.2 T&T&S slowdown decomposition, if both
// models were run.
func (o *Outcome) Decomposition() (stats.Decomposition, bool) {
	q, okQ := o.Results[ModelQueue]
	t, okT := o.Results[ModelTTS]
	if !okQ || !okT {
		return stats.Decomposition{}, false
	}
	return stats.Decompose(q, t), true
}

// Options configures a suite run. Zero values select defaults. Construct
// it directly or with NewOptions and the functional With* options.
type Options struct {
	// Scale is the workload scale (1.0 = paper magnitudes). Zero means 1.
	Scale float64
	// Seed drives all generation randomness.
	Seed int64
	// Models selects which machine models to simulate; nil means all.
	Models []Model
	// Machine is the base machine configuration; zero value means
	// machine.DefaultConfig().
	Machine *machine.Config
	// Select restricts the run to a validated benchmark subset; the zero
	// value selects all six.
	Select suite.Selection
	// Only restricts the run to the named benchmarks; nil means all six.
	// Names are validated when the run starts and an unknown one fails
	// with suite.ErrUnknownBenchmark.
	//
	// Deprecated: build a suite.Selection (WithOnly does) instead; it
	// validates names eagerly.
	Only []string
	// Progress, when non-nil, receives one line per step for long runs.
	// Calls are serialised by the engine, so the callback needs no
	// locking of its own.
	Progress func(format string, args ...any)
	// Metrics enables per-benchmark RunReports on each Outcome.
	Metrics bool
	// OnReport, when non-nil, receives the suite-level engine report
	// (phase times, cache hit rate, worker occupancy) after the run.
	// Setting it implies Metrics.
	OnReport func(metrics.SuiteReport)
	// Workers bounds how many simulations run concurrently; zero selects
	// GOMAXPROCS.
	Workers int
	// Cache, when non-nil, is a shared trace cache: traces memoised by
	// earlier runs (or other concurrent runs) are reused instead of being
	// regenerated. Nil gives the run a private cache. Long-lived callers
	// should pass a bounded cache (engine.NewTraceCacheCap).
	Cache *engine.TraceCache
	// Chaos, when non-nil, is the fault-injection plane handed to the
	// engine (see internal/chaos). Nil is inert.
	Chaos *chaos.Plane
}

// Option mutates an Options value; see NewOptions.
type Option func(*Options)

// NewOptions builds an Options from functional options.
func NewOptions(opts ...Option) Options {
	var o Options
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// WithScale sets the workload scale (1.0 = paper magnitudes).
func WithScale(scale float64) Option { return func(o *Options) { o.Scale = scale } }

// WithSeed sets the generation seed.
func WithSeed(seed int64) Option { return func(o *Options) { o.Seed = seed } }

// WithModels selects the machine models to simulate. No models means
// ideal statistics only.
func WithModels(models ...Model) Option {
	return func(o *Options) { o.Models = models }
}

// WithOnly restricts the run to the named benchmarks. Names are validated
// when the run starts; unknown ones fail with suite.ErrUnknownBenchmark.
func WithOnly(names ...string) Option { return func(o *Options) { o.Only = names } }

// WithSelection restricts the run to an already-validated selection.
func WithSelection(sel suite.Selection) Option {
	return func(o *Options) { o.Select = sel }
}

// WithMachine sets the base machine configuration models derive from.
func WithMachine(cfg machine.Config) Option {
	return func(o *Options) { o.Machine = &cfg }
}

// WithProgress sets the per-step progress callback.
func WithProgress(fn func(format string, args ...any)) Option {
	return func(o *Options) { o.Progress = fn }
}

// WithMetrics enables per-benchmark RunReports on each Outcome.
func WithMetrics() Option { return func(o *Options) { o.Metrics = true } }

// WithReport delivers the suite-level engine report to fn after the run
// (and implies WithMetrics).
func WithReport(fn func(metrics.SuiteReport)) Option {
	return func(o *Options) {
		o.Metrics = true
		o.OnReport = fn
	}
}

// WithWorkers bounds how many simulations run concurrently.
func WithWorkers(n int) Option { return func(o *Options) { o.Workers = n } }

// WithCache shares a trace cache across runs (see Options.Cache).
func WithCache(c *engine.TraceCache) Option {
	return func(o *Options) { o.Cache = c }
}

// models returns the models to simulate; nil selects all three.
func (o Options) models() []Model {
	if o.Models == nil {
		return []Model{ModelQueue, ModelTTS, ModelWO}
	}
	return o.Models
}

// selection resolves the effective benchmark subset, validating any
// deprecated Only names.
func (o Options) selection() (suite.Selection, error) {
	if !o.Select.All() {
		return o.Select, nil
	}
	return suite.NewSelection(o.Only...)
}

// RunBenchmarkCtx generates one benchmark and simulates it under the given
// models, concurrently on the experiment engine. The same generated trace
// is replayed for every model, exactly as the paper drives one trace
// through several simulated machines. Cancelling ctx aborts in-flight
// simulations promptly and returns ctx.Err().
func RunBenchmarkCtx(ctx context.Context, b suite.Benchmark, opts Options) (*Outcome, error) {
	outs, err := runMatrix(ctx, []suite.Benchmark{b}, opts)
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// RunSuiteCtx runs the selected benchmarks under the selected models and
// returns the outcomes in the paper's table order. The whole (benchmark ×
// model) matrix is scheduled concurrently over Options.Workers workers;
// cancelling ctx aborts the run promptly and returns ctx.Err().
func RunSuiteCtx(ctx context.Context, opts Options) ([]*Outcome, error) {
	sel, err := opts.selection()
	if err != nil {
		return nil, err
	}
	return runMatrix(ctx, sel.Benchmarks(), opts)
}

// runMatrix schedules the (benchmark × model) matrix on the engine and
// groups the task results back into per-benchmark outcomes.
func runMatrix(ctx context.Context, benches []suite.Benchmark, opts Options) ([]*Outcome, error) {
	if opts.Scale == 0 {
		opts.Scale = 1
	}
	if opts.OnReport != nil {
		opts.Metrics = true
	}
	models := opts.models()
	base := machine.DefaultConfig()
	if opts.Machine != nil {
		base = *opts.Machine
	}
	params := workload.Params{Scale: opts.Scale, Seed: opts.Seed}

	type taskMeta struct {
		bench     int
		model     Model
		idealOnly bool
	}
	var (
		tasks []engine.Task
		metas []taskMeta
	)
	for bi, b := range benches {
		if len(models) == 0 {
			// Tables 1-2 need no machine: one ideal-only task per
			// benchmark still generates and analyses the trace.
			tasks = append(tasks, engine.Task{
				Program: b.Program, Params: params, Label: "ideal",
				IdealOnly: true, Metrics: opts.Metrics,
			})
			metas = append(metas, taskMeta{bench: bi, idealOnly: true})
			continue
		}
		for _, model := range models {
			tasks = append(tasks, engine.Task{
				Program: b.Program, Params: params, Label: model.String(),
				Config: model.MachineConfig(base), Metrics: opts.Metrics,
			})
			metas = append(metas, taskMeta{bench: bi, model: model})
		}
	}

	eng := engine.New(engine.Config{Workers: opts.Workers, Progress: opts.Progress, Cache: opts.Cache, Chaos: opts.Chaos})
	results, report, err := eng.Run(ctx, tasks)
	if err != nil {
		return nil, err
	}

	outs := make([]*Outcome, len(benches))
	for bi, b := range benches {
		outs[bi] = &Outcome{
			Name:    b.Program.Name(),
			Paper:   b.Paper,
			Params:  params,
			Results: make(map[Model]*machine.Result, len(models)),
		}
		if opts.Metrics {
			outs[bi].Report = &metrics.RunReport{}
		}
	}
	for i, r := range results {
		meta := metas[i]
		o := outs[meta.bench]
		o.Ideal = r.Ideal
		if !meta.idealOnly {
			o.Results[meta.model] = r.Result
		}
		if opts.Metrics {
			o.Report.Add(r.Report)
		}
	}
	if opts.OnReport != nil {
		opts.OnReport(report)
	}
	return outs, nil
}
