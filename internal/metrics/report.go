package metrics

import (
	"fmt"
	"strings"
	"time"
)

// RunReport breaks down where one benchmark run's wall time went. Reports
// are mergeable: an Outcome simulated under several machine models carries
// the sum over its runs (Runs counts them), with trace generation and
// ideal analysis paid once by whichever run missed the trace cache.
type RunReport struct {
	// Generate is the wall time spent generating the benchmark trace
	// (zero when every run hit the trace cache).
	Generate time.Duration
	// Analyze is the wall time spent computing ideal statistics.
	Analyze time.Duration
	// Simulate is the wall time spent in the machine simulator.
	Simulate time.Duration
	// Wall is the end-to-end wall time, summed over merged runs.
	Wall time.Duration
	// Runs is the number of simulation runs merged into this report.
	Runs int
	// CacheHits counts runs that reused a cached trace.
	CacheHits int
	// SimCycles is the total number of simulated machine cycles.
	SimCycles uint64
	// SchedIters and SchedSteps count the simulator run loop's own work:
	// cycles the scheduler visited and per-processor step calls it made.
	// They measure the simulator, not the simulated machine — the wakeup
	// calendar visits far fewer cycles than SimCycles on sparse traces.
	SchedIters, SchedSteps uint64
}

// Add merges another report into r.
func (r *RunReport) Add(o RunReport) {
	r.Generate += o.Generate
	r.Analyze += o.Analyze
	r.Simulate += o.Simulate
	r.Wall += o.Wall
	r.Runs += o.Runs
	r.CacheHits += o.CacheHits
	r.SimCycles += o.SimCycles
	r.SchedIters += o.SchedIters
	r.SchedSteps += o.SchedSteps
}

// Throughput returns simulated cycles per second of simulator wall time,
// or zero when nothing was simulated.
func (r RunReport) Throughput() float64 {
	if r.Simulate <= 0 {
		return 0
	}
	return float64(r.SimCycles) / r.Simulate.Seconds()
}

// SchedEfficiency returns simulated cycles per scheduler iteration — how
// many machine cycles each visited loop iteration advanced on average. The
// polling loop pins this near 1; the wakeup calendar's value grows with
// trace sparsity.
func (r RunReport) SchedEfficiency() float64 {
	if r.SchedIters == 0 {
		return 0
	}
	return float64(r.SimCycles) / float64(r.SchedIters)
}

// String renders the report as one compact line.
func (r RunReport) String() string {
	return fmt.Sprintf(
		"generate %v  analyze %v  simulate %v  wall %v | %d run(s), %d cache hit(s), %s cycles (%s cycles/s)",
		r.Generate.Round(time.Microsecond), r.Analyze.Round(time.Microsecond),
		r.Simulate.Round(time.Microsecond), r.Wall.Round(time.Microsecond),
		r.Runs, r.CacheHits, siCount(float64(r.SimCycles)), siCount(r.Throughput()))
}

// SuiteReport summarises one engine run over a task matrix: scheduling
// shape, per-phase time, trace-cache effectiveness, and aggregate
// simulation throughput.
type SuiteReport struct {
	// Wall is the end-to-end wall time of the engine run.
	Wall time.Duration
	// Workers is the worker-pool size used.
	Workers int
	// Tasks is the number of tasks scheduled.
	Tasks int
	// CacheHits and CacheMisses count trace-cache lookups; a miss pays
	// trace generation, a hit reuses an earlier task's trace.
	CacheHits, CacheMisses int64
	// Generate, Analyze and Simulate are summed per-phase wall times
	// across all workers.
	Generate, Analyze, Simulate time.Duration
	// Busy is the summed time workers spent executing tasks, less Wait.
	Busy time.Duration
	// Wait is the summed time tasks spent blocked on a trace generation
	// another caller had in flight (a concurrent run sharing the cache):
	// idle time, so it is kept out of Busy and out of Occupancy. It is
	// omitted from JSON when zero, so a report without waits encodes as
	// it did before the field existed.
	Wait time.Duration `json:",omitempty"`
	// SimCycles is the total number of simulated machine cycles.
	SimCycles uint64
	// SchedIters and SchedSteps sum the simulator run loops' own work
	// across all tasks (see RunReport).
	SchedIters, SchedSteps uint64
}

// CacheHitRate returns the fraction of trace-cache lookups that hit,
// or zero when there were none.
func (r SuiteReport) CacheHitRate() float64 {
	total := r.CacheHits + r.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(r.CacheHits) / float64(total)
}

// Occupancy returns the fraction of worker capacity spent on tasks:
// busy worker-time over workers × wall time.
func (r SuiteReport) Occupancy() float64 {
	if r.Workers <= 0 || r.Wall <= 0 {
		return 0
	}
	return r.Busy.Seconds() / (float64(r.Workers) * r.Wall.Seconds())
}

// Throughput returns simulated cycles per second of engine wall time.
func (r SuiteReport) Throughput() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.SimCycles) / r.Wall.Seconds()
}

// String renders the report as a small multi-line block.
func (r SuiteReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine: %d task(s) on %d worker(s) in %v (occupancy %.0f%%",
		r.Tasks, r.Workers, r.Wall.Round(time.Millisecond), 100*r.Occupancy())
	if r.Wait > 0 {
		fmt.Fprintf(&b, ", %v waiting on traces", r.Wait.Round(time.Millisecond))
	}
	b.WriteString(")\n")
	fmt.Fprintf(&b, "phases: generate %v  analyze %v  simulate %v\n",
		r.Generate.Round(time.Microsecond), r.Analyze.Round(time.Microsecond),
		r.Simulate.Round(time.Microsecond))
	fmt.Fprintf(&b, "trace cache: %d miss(es), %d hit(s) (%.1f%% hit rate)\n",
		r.CacheMisses, r.CacheHits, 100*r.CacheHitRate())
	fmt.Fprintf(&b, "simulated: %s cycles (%s cycles/s of wall time)",
		siCount(float64(r.SimCycles)), siCount(r.Throughput()))
	if r.SchedIters > 0 {
		fmt.Fprintf(&b, "\nscheduler: %s iterations, %s steps (%.1f cycles/iteration)",
			siCount(float64(r.SchedIters)), siCount(float64(r.SchedSteps)),
			float64(r.SimCycles)/float64(r.SchedIters))
	}
	return b.String()
}

// siCount formats a count with an SI suffix (12.3M, 4.5G).
func siCount(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.2fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}
