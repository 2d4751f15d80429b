// Command schedbench times machine.Run — the simulator alone, excluding
// trace generation and ideal analysis — across the full benchmark × model
// matrix, under any subset of the run-loop schedulers. It backs the
// committed BENCH_pr3.json and BENCH_pr7.json: repetitions of the
// schedulers under comparison are interleaved so host noise hits them
// equally, and their per-row best times divide into the speedup.
//
// Usage:
//
//	schedbench                                # table on stdout, calendar scheduler
//	schedbench -sched calendar,polling -reps 5  # calendar and polling side by side
//	schedbench -sched all                     # every scheduler, incl. parallel run-ahead
//	schedbench -only Grav,Pdsa                # focused subset of the benchmarks
//	schedbench -json out.json                 # machine-readable report
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"syncsim/internal/core"
	"syncsim/internal/machine"
	"syncsim/internal/trace"
	"syncsim/internal/workload"
	"syncsim/internal/workload/suite"
)

// Row is one (benchmark, model, scheduler) measurement: the best wall time
// of machine.Run over all repetitions, plus the run's invariant outputs so
// reports from different commits can be checked for cycle-exactness before
// their times are compared.
type Row struct {
	Bench     string  `json:"bench"`
	Model     string  `json:"model"`
	Scheduler string  `json:"scheduler"`
	BestNs    int64   `json:"best_ns"`
	SimCycles uint64  `json:"sim_cycles"`
	MCyclesPS float64 `json:"mcycles_per_sec"`
	// Iterations and Steps are zero when the build predates scheduler
	// metrics.
	Iterations uint64 `json:"sched_iterations,omitempty"`
	Steps      uint64 `json:"sched_steps,omitempty"`
}

// Report is the schedbench JSON document.
type Report struct {
	Scale float64 `json:"scale"`
	Seed  int64   `json:"seed"`
	NCPU  int     `json:"ncpu"`
	Reps  int     `json:"reps"`
	Rows  []Row   `json:"rows"`
}

// main is a thin exit-code shim around run so deferred cleanups always
// fire; os.Exit inside the work path would skip them.
func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "schedbench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("schedbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Float64("scale", 0.05, "workload scale")
	seed := fs.Int64("seed", 1, "generation seed")
	reps := fs.Int("reps", 5, "repetitions per cell; the best time is kept")
	schedFlag := fs.String("sched", "calendar", "comma-separated scheduler(s) to time ("+strings.Join(machine.SchedulerNames(), ", ")+"), or all")
	only := fs.String("only", "", "comma-separated benchmark subset (default: all six)")
	jsonPath := fs.String("json", "", "also write the report as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	scheds := machine.Schedulers()
	if *schedFlag != "all" {
		scheds = nil
		for _, name := range strings.Split(*schedFlag, ",") {
			sched, err := machine.ParseSched(name)
			if err != nil {
				return err
			}
			scheds = append(scheds, sched)
		}
	}
	models := []core.Model{core.ModelQueue, core.ModelTTS, core.ModelWO}

	rep := Report{Scale: *scale, Seed: *seed, Reps: *reps}
	fmt.Fprintf(stdout, "%-10s %-6s %-9s %12s %14s %10s\n", "bench", "model", "sched", "best", "cycles", "Mcyc/s")
	var sel []string
	if *only != "" {
		sel = strings.Split(*only, ",")
	}
	selection, err := suite.NewSelection(sel...)
	if err != nil {
		return err
	}
	for _, b := range selection.Benchmarks() {
		name := b.Program.Name()
		set, err := b.Program.Generate(workload.Params{Scale: *scale, Seed: *seed})
		if err != nil {
			return err
		}
		rep.NCPU = set.NCPU()
		for _, model := range models {
			// Repetitions are interleaved across schedulers (rep 0 of each,
			// then rep 1 of each, …) instead of run as one block per
			// scheduler: schedulers being compared against each other then
			// sample the same slice of any minute-scale host noise — CPU
			// frequency drift, co-tenant load — so the best-of ratio
			// measures the schedulers, not the weather.
			cfgs := make([]machine.Config, len(scheds))
			rows := make([]Row, len(scheds))
			for si, sched := range scheds {
				cfgs[si] = model.MachineConfig(machine.DefaultConfig())
				cfgs[si].Sched = sched
				rows[si] = Row{Bench: name, Model: model.String(), Scheduler: sched.String()}
			}
			for r := 0; r < *reps; r++ {
				for si := range scheds {
					row := &rows[si]
					if err := trace.Reset(set); err != nil {
						return err
					}
					start := time.Now()
					res, err := machine.Run(set, cfgs[si])
					elapsed := time.Since(start)
					if err != nil {
						return fmt.Errorf("%s/%s/%s: %v", name, model, row.Scheduler, err)
					}
					if row.BestNs == 0 || elapsed.Nanoseconds() < row.BestNs {
						row.BestNs = elapsed.Nanoseconds()
						row.Iterations = res.Sched.Iterations
						row.Steps = res.Sched.Steps
					}
					if row.SimCycles == 0 {
						row.SimCycles = res.RunTime
					} else if row.SimCycles != res.RunTime {
						return fmt.Errorf("%s/%s/%s: run time changed between repetitions: %d vs %d",
							name, model, row.Scheduler, row.SimCycles, res.RunTime)
					}
				}
			}
			for si := range rows {
				if rows[si].SimCycles != rows[0].SimCycles {
					return fmt.Errorf("%s/%s: scheduler %s simulated %d cycles, %s simulated %d — schedulers must be cycle-exact",
						name, model, rows[si].Scheduler, rows[si].SimCycles, rows[0].Scheduler, rows[0].SimCycles)
				}
				row := rows[si]
				row.MCyclesPS = float64(row.SimCycles) / 1e6 /
					(float64(row.BestNs) / float64(time.Second))
				rep.Rows = append(rep.Rows, row)
				fmt.Fprintf(stdout, "%-10s %-6s %-9s %12s %14d %10.1f\n",
					row.Bench, row.Model, row.Scheduler,
					time.Duration(row.BestNs).Round(time.Microsecond),
					row.SimCycles, row.MCyclesPS)
			}
		}
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
