// Command sweep produces parameter-sweep series (CSV) from the simulator:
// vary the processor count, the lock algorithm, the memory latency or the
// cache-bus buffer depth for one benchmark and print one row per point.
// This is the harness for figure-style plots the paper's discussion asks
// for (scalability of the lock schemes, weak ordering vs miss penalty).
//
// Sweep points run concurrently on the experiment engine: machine-config
// sweeps (lock, memlat, bufdepth) generate the benchmark trace once and
// replay it at every point via the trace cache; -metrics reports the
// cache hit rate, per-phase times and worker occupancy as CSV comments.
//
// Usage:
//
//	sweep -bench Grav -param ncpu -values 2,4,6,8,10,12 [-lock queue] [-scale 0.1]
//	sweep -bench Qsort -param memlat -values 3,6,12,24 -cons wo
//	sweep -bench Grav -param lock -values queue,queue-exact,tts,tts-backoff
//	sweep -bench Qsort -param bufdepth -values 1,2,4,8 -cons wo -metrics [-j 4]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"syncsim/internal/engine"
	"syncsim/internal/locks"
	"syncsim/internal/machine"
	"syncsim/internal/workload"
	"syncsim/internal/workload/suite"
)

func main() {
	bench := flag.String("bench", "Grav", "benchmark name")
	param := flag.String("param", "ncpu", "swept parameter: ncpu, lock, memlat, bufdepth")
	values := flag.String("values", "", "comma-separated sweep values")
	lock := flag.String("lock", "queue", "lock algorithm (fixed unless swept)")
	cons := flag.String("cons", "sc", "consistency model: sc or wo")
	scale := flag.Float64("scale", 0.1, "workload scale")
	seed := flag.Int64("seed", 1, "generation seed")
	workers := flag.Int("j", 0, "concurrent sweep points (0 = GOMAXPROCS)")
	sched := flag.String("sched", machine.DefaultConfig().Sched.String(), "per-run scheduler: parallel (run-ahead), calendar, or polling")
	showMetrics := flag.Bool("metrics", false, "append the engine report as CSV comments")
	flag.Parse()

	if *values == "" {
		fatal(fmt.Errorf("need -values"))
	}
	b, err := suite.ByName(*bench)
	if err != nil {
		fatal(err)
	}

	baseCfg := machine.DefaultConfig()
	if alg, err := parseLock(*lock); err != nil {
		fatal(err)
	} else {
		baseCfg.Lock = alg
	}
	if *cons == "wo" {
		baseCfg.Consistency = machine.WeakOrdering
	}
	if kind, err := machine.ParseSched(*sched); err != nil {
		fatal(err)
	} else {
		baseCfg.Sched = kind
	}

	var (
		tasks  []engine.Task
		labels []string
	)
	for _, v := range strings.Split(*values, ",") {
		v = strings.TrimSpace(v)
		cfg := baseCfg
		params := workload.Params{Scale: *scale, Seed: *seed}
		switch *param {
		case "ncpu":
			n, err := strconv.Atoi(v)
			if err != nil {
				fatal(err)
			}
			params.NCPU = n
		case "lock":
			alg, err := parseLock(v)
			if err != nil {
				fatal(err)
			}
			cfg.Lock = alg
		case "memlat":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				fatal(err)
			}
			cfg.Memory.AccessTime = n
		case "bufdepth":
			n, err := strconv.Atoi(v)
			if err != nil {
				fatal(err)
			}
			cfg.BufDepth = n
		default:
			fatal(fmt.Errorf("unknown sweep parameter %q", *param))
		}
		tasks = append(tasks, engine.Task{
			Program: b.Program, Params: params, Label: v, Config: cfg,
		})
		labels = append(labels, v)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	eng := engine.New(engine.Config{Workers: *workers})
	results, report, err := eng.Run(ctx, tasks)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("# %s sweep of %s (scale %g, lock %v, %v)\n",
		*param, *bench, *scale, baseCfg.Lock, baseCfg.Consistency)
	fmt.Println("value,runtime_cycles,utilization_pct,lock_stall_pct,waiters,xfer_cycles,bus_pct")
	for i, r := range results {
		res := r.Result
		_, lockPct, _ := res.StallBreakdown()
		fmt.Printf("%s,%d,%.2f,%.2f,%.3f,%.2f,%.2f\n",
			labels[i], res.RunTime, 100*res.AvgUtilization(), lockPct,
			res.Locks.AvgWaitersAtTransfer(), res.Locks.AvgTransferTime(),
			100*res.BusUtilization())
	}
	if *showMetrics {
		for _, line := range strings.Split(report.String(), "\n") {
			fmt.Println("# " + line)
		}
	}
}

func parseLock(s string) (locks.Algorithm, error) {
	switch s {
	case "queue":
		return locks.Queue, nil
	case "tts":
		return locks.TTS, nil
	case "queue-exact":
		return locks.QueueExact, nil
	case "tts-backoff":
		return locks.TTSBackoff, nil
	default:
		return 0, fmt.Errorf("unknown lock algorithm %q", s)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
