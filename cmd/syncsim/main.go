// Command syncsim simulates one benchmark (or a trace file) on the
// modelled shared-bus multiprocessor and reports the paper's runtime and
// contention metrics.
//
// Usage:
//
//	syncsim -bench Grav [-scale 0.2] [-lock queue|tts] [-cons sc|wo] [-ncpu N] [-seed N]
//	syncsim -trace prog.trc [-lock tts] [-cons wo]
//	syncsim -bench Pdsa -metrics   # per-phase wall time and throughput
//	syncsim -bench Qsort -check    # run with the invariant checker enabled
//	syncsim -bench Qsort -scale 1 -stream -membudget 64   # O(ring) memory
//	syncsim -arch      # print the modelled architecture (the paper's Figure 1)
//
// With -stream the trace is not materialised: generation runs concurrently
// with simulation through a bounded ring, so memory stays O(ring budget)
// instead of O(trace). Streaming skips the ideal-trace analysis (the events
// are consumed as they are produced and cannot be rewound) and always
// simulates on the serial calendar scheduler. -membudget N makes the run
// fail if peak sampled heap use ever exceeds N MiB — CI uses it to pin the
// bounded-memory property.
//
// Interrupting a run (Ctrl-C) cancels the simulation promptly.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync/atomic"
	"time"

	"syncsim/internal/locks"
	"syncsim/internal/machine"
	"syncsim/internal/metrics"
	"syncsim/internal/trace"
	"syncsim/internal/workload"
	"syncsim/internal/workload/addr"
	"syncsim/internal/workload/suite"
)

const archDiagram = `Modelled architecture (paper Figure 1, Sequent Symmetry Model B-like):

  +--------+   +--------+        +--------+
  | CPU 0  |   | CPU 1  |  ...   | CPU n  |     per CPU:
  +--------+   +--------+        +--------+       64 KB cache, 2-way,
  | cache  |   | cache  |        | cache  |       16 B lines, write-back,
  +--------+   +--------+        +--------+       LRU, Illinois (MESI)
  | buffer |   | buffer |        | buffer |     4-entry cache-bus buffer
  +---+----+   +---+----+        +---+----+     (dirty lines snoopable)
      |            |                 |
  ====+============+=================+=======   64-bit split-transaction bus,
                       |                        round-robin arbitration
              +--------+--------+
              | in-buffer  (2)  |
              |     MEMORY      |               3-cycle access
              | out-buffer (2)  |
              +-----------------+

Uncontended miss: 1 (request) + 3 (memory) + 2 (line transfer) = 6 cycles.
Cache-to-cache supply: 3 cycles. Upgrade invalidation: 1 cycle.`

// heapSampler polls runtime.ReadMemStats on its own goroutine and tracks
// the HeapAlloc high-water mark. Sampling (rather than reading MemStats
// once at the end) is what catches a transient materialised-trace peak
// that a post-run GC would hide.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

func startHeapSampler() *heapSampler {
	s := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > s.peak.Load() {
				s.peak.Store(ms.HeapAlloc)
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// stopAndPeak halts the sampler and returns the observed peak in bytes.
// It takes one final sample on the way out so short runs (faster than one
// ticker period) still report something.
func (s *heapSampler) stopAndPeak() uint64 {
	close(s.stop)
	<-s.done
	return s.peak.Load()
}

// main is a thin exit-code shim: all work happens in run, whose deferred
// cleanups (profile flushes, file closes) must fire on EVERY path. Calling
// os.Exit anywhere inside run would skip them and truncate profiles.
func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "syncsim: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("syncsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "", "benchmark name (Grav, Pdsa, FullConn, Pverify, Qsort, Topopt)")
	traceFile := fs.String("trace", "", "binary trace file to simulate instead of a benchmark")
	scale := fs.Float64("scale", 0.2, "workload scale")
	seed := fs.Int64("seed", 1, "generation seed")
	ncpu := fs.Int("ncpu", 0, "processor count (0 = benchmark default)")
	lock := fs.String("lock", "queue", "lock algorithm: queue, tts, queue-exact, tts-backoff")
	cons := fs.String("cons", "sc", "consistency model: sc or wo")
	bufDepth := fs.Int("buf", 4, "cache-bus buffer depth")
	checkRun := fs.Bool("check", false, "enable the runtime invariant checker (coherence, bus conservation, lock fairness); roughly 1.5x slower")
	arch := fs.Bool("arch", false, "print the modelled architecture and exit")
	perCPU := fs.Bool("percpu", false, "print per-processor details")
	showMetrics := fs.Bool("metrics", false, "print the per-phase run report (generate/analyze/simulate wall time, throughput)")
	hotLocks := fs.Int("locks", 0, "print the N hottest locks by acquisitions")
	hist := fs.Bool("hist", false, "print the waiters-at-transfer histogram")
	sched := fs.String("sched", "calendar", "simulation scheduler: calendar (event-driven), polling (step every CPU every cycle), or parallel (speculative run-ahead, bit-identical)")
	stream := fs.Bool("stream", false, "stream traces through a bounded ring instead of materialising them (skips the ideal analysis; serial scheduler)")
	streamBudget := fs.Int("streambudget", 0, "total buffered events across CPUs for -stream (0 = default)")
	memBudget := fs.Int("membudget", 0, "peak-heap budget in MiB (0 = unlimited): fail the run if sampled HeapAlloc ever exceeds it")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile (post-run) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *arch {
		fmt.Fprintln(stdout, archDiagram)
		return nil
	}

	cfg := machine.DefaultConfig()
	cfg.BufDepth = *bufDepth
	cfg.Check = *checkRun
	switch *lock {
	case "queue":
		cfg.Lock = locks.Queue
	case "tts":
		cfg.Lock = locks.TTS
	case "queue-exact":
		cfg.Lock = locks.QueueExact
	case "tts-backoff":
		cfg.Lock = locks.TTSBackoff
	default:
		return fmt.Errorf("unknown lock algorithm %q (want queue, tts, queue-exact, tts-backoff)", *lock)
	}
	switch *cons {
	case "sc":
		cfg.Consistency = machine.SeqConsistent
	case "wo":
		cfg.Consistency = machine.WeakOrdering
	default:
		return fmt.Errorf("unknown consistency model %q (want sc or wo)", *cons)
	}
	kind, err := machine.ParseSched(*sched)
	if err != nil {
		return fmt.Errorf("unknown scheduler %q (want calendar, polling, parallel)", *sched)
	}
	cfg.Sched = kind

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %v", err)
		}
		// Deferred so the profile is complete and parseable even when the
		// run below fails: os.Exit on the error path used to truncate it.
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		// Also deferred: a failing run still yields a snapshot of what the
		// heap looked like at the point of failure.
		defer func() {
			f, ferr := os.Create(*memProfile)
			if ferr != nil {
				if err == nil {
					err = ferr
				}
				return
			}
			runtime.GC() // settle allocations so the heap profile reflects retention
			if werr := pprof.WriteHeapProfile(f); werr != nil && err == nil {
				err = fmt.Errorf("memprofile: %v", werr)
			}
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
	}

	if *stream && *traceFile != "" {
		return fmt.Errorf("-stream applies to generated benchmarks, not -trace files (the file is already materialised)")
	}
	if *streamBudget != 0 && !*stream {
		return fmt.Errorf("-streambudget only applies with -stream")
	}

	if *memBudget > 0 {
		sampler := startHeapSampler()
		// Deferred (and registered after the profile defers, so it runs
		// before them): a blown budget must fail the run even when the
		// simulation itself succeeded.
		defer func() {
			peak := sampler.stopAndPeak()
			fmt.Fprintf(stderr, "syncsim: peak heap %.1f MiB (budget %d MiB)\n",
				float64(peak)/(1<<20), *memBudget)
			if err == nil && peak > uint64(*memBudget)<<20 {
				err = fmt.Errorf("peak heap %.1f MiB exceeded the %d MiB budget",
					float64(peak)/(1<<20), *memBudget)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var rep metrics.RunReport
	var set *trace.Set
	var handle *workload.StreamHandle
	genStart := time.Now()
	switch {
	case *traceFile != "":
		f, err := os.Open(*traceFile)
		if err != nil {
			return err
		}
		set, err = trace.DecodeSet(f)
		f.Close()
		if err != nil {
			return err
		}
	case *bench != "":
		b, err := suite.ByName(*bench)
		if err != nil {
			return err
		}
		p := workload.Params{NCPU: *ncpu, Scale: *scale, Seed: *seed}
		if *stream {
			set, handle, err = workload.StreamTraces(b.Program, p, *streamBudget)
		} else {
			set, err = b.Program.Generate(p)
		}
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("need -bench, -trace, or -arch (benchmarks: %v)", suite.Names())
	}
	rep.Generate = time.Since(genStart)

	var ideal trace.Summary
	if handle == nil {
		// Streaming sources cannot be rewound, so the ideal-trace analysis
		// (a full extra pass) only runs on materialised traces.
		anStart := time.Now()
		ideal = trace.AnalyzeIdeal(set, addr.Shared).Summarize()
		rep.Analyze = time.Since(anStart)
		if err := trace.Reset(set); err != nil {
			return err
		}
	}
	simStart := time.Now()
	res, err := machine.RunCtx(ctx, set, cfg)
	if handle != nil && err != nil {
		handle.Abort() // unblock and discard the parked generator
		return err
	}
	if handle != nil {
		// A generation failure truncates the stream: the machine finishes
		// "successfully" over a partial trace, so the producer's error must
		// override the simulation result.
		if werr := handle.Wait(); werr != nil {
			return fmt.Errorf("generate: %w", werr)
		}
	}
	if err != nil {
		return err
	}
	rep.Simulate = time.Since(simStart)
	rep.Wall = time.Since(genStart)
	rep.Runs = 1
	rep.SimCycles = res.RunTime
	rep.SchedIters = res.Sched.Iterations
	rep.SchedSteps = res.Sched.Steps

	fmt.Fprintf(stdout, "%s  (%d CPUs, lock=%s, consistency=%s)\n", res.Name, len(res.CPUs), cfg.Lock, cfg.Consistency)
	if handle != nil {
		fmt.Fprintf(stdout, "  stream:   peak %d events buffered; ideal analysis skipped\n",
			handle.MaxBuffered())
	} else {
		fmt.Fprintf(stdout, "  ideal:    work %.0f cycles/cpu, %.0f refs/cpu (%.0f data, %.0f shared), %.0f lock pairs/cpu\n",
			ideal.WorkCycles, ideal.Refs, ideal.DataRefs, ideal.SharedRefs, ideal.LockPairs)
	}
	fmt.Fprintf(stdout, "  run-time: %d cycles\n", res.RunTime)
	fmt.Fprintf(stdout, "  util:     %.1f%%\n", 100*res.AvgUtilization())
	cachePct, lockPct, otherPct := res.StallBreakdown()
	fmt.Fprintf(stdout, "  stalls:   cache %.1f%%  lock %.1f%%  other %.1f%%\n", cachePct, lockPct, otherPct)
	fmt.Fprintf(stdout, "  locks:    %d acquisitions, %d transfers, %.2f waiters at transfer\n",
		res.Locks.Acquisitions, res.Locks.Transfers, res.Locks.AvgWaitersAtTransfer())
	fmt.Fprintf(stdout, "            held %.0f cycles avg (%.0f at transfers), transfer latency %.1f cycles\n",
		res.Locks.AvgHold(), res.Locks.AvgTransferHold(), res.Locks.AvgTransferTime())
	fmt.Fprintf(stdout, "  caches:   read hit %.1f%%, write hit %.1f%%\n",
		100*res.ReadHitRatio(), 100*res.WriteHitRatio())
	fmt.Fprintf(stdout, "  bus:      %.1f%% utilised (%d transactions)\n",
		100*res.BusUtilization(), res.Bus.Total())
	fmt.Fprintf(stdout, "  memory:   %d reads, %d writes\n", res.Memory.Reads, res.Memory.Writes)
	if *checkRun {
		fmt.Fprintln(stdout, "  check:    all invariants held")
	}
	if res.DroppedWriteBacks > 0 {
		fmt.Fprintf(stdout, "  note:     %d write-backs dropped (buffer-full corner)\n", res.DroppedWriteBacks)
	}
	if *showMetrics {
		fmt.Fprintf(stdout, "  metrics:  %s\n", rep)
		if events, ok := set.Events(); ok {
			fmt.Fprintf(stdout, "            %d trace events (%.0f events/s simulated)\n",
				events, float64(events)/rep.Simulate.Seconds())
		}
		fmt.Fprintf(stdout, "            %s scheduler: %d iterations, %d steps (%.1f cycles/iteration)\n",
			cfg.Sched, rep.SchedIters, rep.SchedSteps, rep.SchedEfficiency())
	}
	if *hotLocks > 0 {
		fmt.Fprintln(stdout, "  hottest locks:")
		type row struct {
			id   uint32
			info locks.LockInfo
		}
		var rows []row
		for id, info := range res.LockDetails {
			rows = append(rows, row{id, info})
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].info.Acquisitions != rows[j].info.Acquisitions {
				return rows[i].info.Acquisitions > rows[j].info.Acquisitions
			}
			return rows[i].id < rows[j].id
		})
		if len(rows) > *hotLocks {
			rows = rows[:*hotLocks]
		}
		for _, r := range rows {
			fmt.Fprintf(stdout, "    lock %-6d @%#x  %8d acquisitions  %8d transfers\n",
				r.id, r.info.Addr, r.info.Acquisitions, r.info.Transfers)
		}
	}
	if *hist {
		fmt.Fprintln(stdout, "  waiters-at-transfer histogram:")
		for n, count := range res.Locks.WaiterHistogram {
			if count == 0 {
				continue
			}
			label := fmt.Sprintf("%d", n)
			if n == len(res.Locks.WaiterHistogram)-1 {
				label = fmt.Sprintf("%d+", n)
			}
			fmt.Fprintf(stdout, "    %3s waiters: %8d transfers\n", label, count)
		}
	}
	if *perCPU {
		fmt.Fprintln(stdout, "  per-CPU:")
		for i := range res.CPUs {
			c := &res.CPUs[i]
			fmt.Fprintf(stdout, "    cpu%-2d work=%-10d finish=%-10d util=%5.1f%% stalls miss=%d lock=%d barrier=%d drain=%d\n",
				i, c.WorkCycles, c.FinishTime, 100*c.Utilization(),
				c.StallMiss, c.StallLock, c.StallBarrier, c.StallDrain)
		}
	}
	return nil
}
