// Command perfbench is syncsim's benchmark: it runs one seeded workload
// in-process for a fixed time, checks every output it gets, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics) as
// the last line of its output, in the JSON form BENCHMARK.json describes.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload paper-tables --seed 1 --seconds 30 --trace 0
//
// Workloads (see README.md for why each exists and what each metric
// should move):
//
//	paper-tables  core.RunSuiteCtx over 6 benchmarks x 3 models, then tables.All
//	serve-mixed   a closed loop of sim and predict requests to an in-process syncsimd
//	fleet-sweep   a closed loop of sweeps to an in-process fleet of two syncsimd
//
// -regen paper|fleet|model recomputes a reference file in testdata.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of syncsim sees, reported by every
// workload on its own operations: a suite through the rendered tables
// (paper-tables), one request (serve-mixed), one sweep (fleet-sweep).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"rss_mib", "MiB", "lower", 0.2},
	{"req_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
}

// shareLayers are the layers whose share of operation time every traced
// run reports (see Accounting.Time); with "bench", the time no layer
// covers, they add up to 1.
var shareLayers = []string{"bench", "client", "http", "fleet", "server", "store", "engine", "workload", "trace", "machine", "tables"}

// perLayer are the traced run's metrics. Every workload reports every
// one; a count or ratio of a layer the workload does not run is 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{Name: "workload.generate_s", Unit: "s", Better: "lower"},
		{Name: "trace.ideal_s", Unit: "s", Better: "lower"},
		{Name: "machine.run_s", Unit: "s", Better: "lower"},
		{Name: "machine.ns_per_sim_cycle", Unit: "ns", Better: "lower"},
		{Name: "machine.sim_cycles", Unit: "count", Better: "lower"},
		{Name: "machine.sched_steps", Unit: "count", Better: "lower"},
		{Name: "machine.sched_iterations", Unit: "count", Better: "lower"},
		{Name: "engine.trace_cache_hits", Unit: "count", Better: "higher"},
		{Name: "engine.trace_cache_misses", Unit: "count", Better: "lower"},
		{Name: "engine.trace_cache_hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "engine.occupancy", Unit: "ratio", Better: "higher"},
		{Name: "server.result_cache_hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "server.coalesced", Unit: "count", Better: "higher"},
		{Name: "server.jobs_rejected", Unit: "count", Better: "lower"},
		{Name: "predict.analytic", Unit: "count", Better: "higher"},
		{Name: "predict.fallback", Unit: "count", Better: "lower"},
		{Name: "client.status_429", Unit: "count", Better: "lower"},
		{Name: "fleet.hedged", Unit: "count", Better: "lower"},
		{Name: "fleet.hedge_wins", Unit: "count", Better: "higher"},
		{Name: "fleet.hedge_useful_ratio", Unit: "ratio", Better: "higher"},
		{Name: "fleet.max_backend_share", Unit: "ratio", Better: "lower"},
		{Name: "fleet.cache_hits", Unit: "count", Better: "higher"},
		{Name: "fleet.store_hits", Unit: "count", Better: "higher"},
		{Name: "fleet.coalesced", Unit: "count", Better: "higher"},
		{Name: "store.hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	}
	for _, l := range shareLayers {
		defs = append(defs, metricDef{Name: l + ".time_share", Unit: "ratio", Better: "lower"})
	}
	return defs
}()

// runConfig is what a workload is given.
type runConfig struct {
	seed     int64
	duration time.Duration
	trace    bool
	rec      *Recorder // nil unless trace
	data     string    // the benchmark's testdata directory
	scratch  string    // where temporary files and the trace go
	workers  int       // client goroutines, server and engine workers, connections
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(context.Context, runConfig) (*outcome, error){
	"paper-tables": runPaper,
	"serve-mixed":  runServe,
	"fleet-sweep":  runFleet,
}

// reportLine is one human-readable metric line.
type reportLine struct {
	name, unit, better, note string
	value                    float64
	n                        int
}

// outcome is what a workload measured and checked.
type outcome struct {
	workload          string
	attempted, failed int64
	diffs             []string // the first mismatches, for the error stream
	e2e, layer        map[string]float64
	report            []reportLine
}

func newOutcome(workload string, setupS float64) *outcome {
	return &outcome{
		workload: workload,
		e2e:      map[string]float64{"setup_s": setupS},
		layer:    map[string]float64{},
	}
}

// attempt counts one checked operation; any difference fails it.
func (o *outcome) attempt(diffs []string) {
	o.attempted++
	if len(diffs) > 0 {
		o.failed++
		for _, d := range diffs {
			if len(o.diffs) < 8 {
				o.diffs = append(o.diffs, d)
			}
		}
	}
}

// addReport adds a line to the human-readable report only.
func (o *outcome) addReport(name string, v float64, unit, better string, n int, note string) {
	o.report = append(o.report, reportLine{name: name, value: v, unit: unit, better: better, n: n, note: note})
}

// addAccounting reports the layer accounting of the traced spans: every
// layer's share of operation time, its summed self time, and whether the
// layers account for the operations within accountingTolerance.
func (o *outcome) addAccounting(spans []Span) {
	a := account(spans)
	share := a.Share()
	for _, l := range shareLayers {
		o.layer[l+".time_share"] = share[l]
	}
	// The accounting is one more checked operation of a traced run.
	var diffs []string
	if a.UnattributedFrac() > accountingTolerance {
		diffs = append(diffs, fmt.Sprintf("layer spans leave %.3f of operation time unattributed, tolerance %g", a.UnattributedFrac(), accountingTolerance))
	}
	o.attempt(diffs)
	o.addReport("layers.unattributed_frac", a.UnattributedFrac(), "ratio", "lower", 0,
		fmt.Sprintf("operation time no layer span covers; the check fails above %g", accountingTolerance))
	layers := make([]string, 0, len(a.Self))
	for l := range a.Self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		o.addReport(l+".self_s", a.Self[l].Seconds(), "s", "lower", 0, "summed self time in the traced phase")
	}
}

// accountingTolerance is the share of root-span time that may fall
// outside every layer span before the layer accounting check fails.
const accountingTolerance = 0.05

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 25

// setupMedian runs setup setupReps times, tearing down all but the last,
// and returns the median set-up time in seconds. The last set-up's state
// stays wherever setup stored it.
func setupMedian(setup func() (teardown func(), err error)) (float64, error) {
	var times []float64
	for i := 0; i < setupReps; i++ {
		// Each set-up starts on a collected heap, so whether a collection
		// falls inside it does not depend on what ran before.
		runtime.GC()
		t0 := time.Now()
		teardown, err := setup()
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		if i < setupReps-1 {
			teardown()
		}
	}
	return median(times), nil
}

// result is the last line of the output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-tables, serve-mixed or fleet-sweep")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 30, "how long to measure")
	traced := fs.Int("trace", 0, "1: traced run, printing the per-layer metrics")
	data := fs.String("data", filepath.Join("perfbench", "testdata"), "the benchmark's reference data")
	scratch := fs.String("scratch", filepath.Join(".bench_build", "perfbench"), "directory for temporary files and the trace")
	regen := fs.String("regen", "", "recompute a reference file: paper, fleet or model")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := runConfig{
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		trace:    *traced == 1,
		data:     *data,
		scratch:  *scratch,
		workers:  runtime.GOMAXPROCS(0),
	}
	ctx := context.Background()
	if *regen != "" {
		if err := regenerate(ctx, *regen, cfg); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[*name]
	if !ok || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload (paper-tables, serve-mixed, fleet-sweep), -seconds > 0 and -trace 0 or 1\n")
		return 2
	}
	if cfg.trace {
		cfg.rec = NewRecorder()
	}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	out, err := w(ctx, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	res, err := finish(out, cfg, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// finish prints the human-readable report, writes the trace, and builds
// the result line.
func finish(out *outcome, cfg runConfig, stdout, stderr io.Writer) (*result, error) {
	defs := endToEnd
	values := out.e2e
	if cfg.trace {
		defs, values = perLayer, out.layer
	}
	res := &result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%t workers=%d\n",
		out.workload, cfg.seed, cfg.duration.Seconds(), cfg.trace, cfg.workers)
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured (%v)", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(stdout, "  %-32s %14.6g %-10s (%s is better)\n", d.Name, v, d.Unit, d.Better)
	}
	for _, l := range out.report {
		n := ""
		if l.n > 0 {
			n = " n=" + strconv.Itoa(l.n)
		}
		fmt.Fprintf(stdout, "  %-32s %14.6g %-10s (%s is better)%s  %s\n", l.name, l.value, l.unit, l.better, n, l.note)
	}
	fmt.Fprintf(stdout, "  checked %d operation(s), %d failed\n", out.attempted, out.failed)
	for _, d := range out.diffs {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", d)
	}
	if cfg.trace {
		path := filepath.Join(cfg.scratch, "traces", fmt.Sprintf("%s-seed%d.jsonl", out.workload, cfg.seed))
		if err := writeSpans(path, cfg.rec.Spans()); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "  spans written to %s\n", path)
	}
	return res, nil
}

// regenerate recomputes one reference file in the testdata directory.
func regenerate(ctx context.Context, what string, cfg runConfig) error {
	switch what {
	case "paper":
		return regenPaper(ctx, cfg.data, cfg.workers)
	case "fleet":
		return regenFleet(ctx, cfg.data, cfg.workers)
	case "model":
		return regenModel(ctx, cfg.data, cfg.workers)
	}
	return errors.New("-regen wants paper, fleet or model")
}

// sum adds xs.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// trimFloat formats f without trailing zeros.
func trimFloat(f float64) string { return strconv.FormatFloat(f, 'f', -1, 64) }
