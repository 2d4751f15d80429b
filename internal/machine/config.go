// Package machine is the cycle-level simulator of the paper's shared-bus
// multiprocessor (§2.2): trace-driven processors, private Illinois-protocol
// caches, four-entry cache-bus interface buffers, a split-transaction bus
// with round-robin arbitration, and a buffered memory module.
//
// The machine executes a trace.Set under a chosen lock algorithm (queuing
// locks or test&test&set) and memory consistency model (sequential
// consistency or weak ordering) and produces the runtime and contention
// statistics of the paper's Tables 3-8.
package machine

import (
	"fmt"

	"syncsim/internal/bus"
	"syncsim/internal/cache"
	"syncsim/internal/locks"
	"syncsim/internal/memory"
)

// Consistency selects the memory access model implemented by the hardware.
type Consistency uint8

const (
	// SeqConsistent: every miss stalls the processor until the access is
	// performed, preserving a per-processor total order of accesses.
	SeqConsistent Consistency = iota
	// WeakOrdering: write misses and upgrades are buffered without
	// stalling; loads and instruction fetches bypass buffered writes
	// (they are placed at the front of the cache-bus buffer); at every
	// synchronisation operation the processor drains all outstanding
	// accesses before touching the synchronisation variable.
	WeakOrdering
)

func (c Consistency) String() string {
	switch c {
	case SeqConsistent:
		return "sc"
	case WeakOrdering:
		return "wo"
	default:
		return fmt.Sprintf("Consistency(%d)", uint8(c))
	}
}

// SchedKind selects the phase-B strategy of the machine's one run loop:
// which processors a visited cycle steps, and how the next cycle to visit
// is found. Phases A and C, the guards and the clock advance are shared.
// All strategies are cycle-exact — they produce bit-identical results —
// and differ only in how they find the work of each simulated cycle.
type SchedKind uint8

const (
	// SchedCalendar drives the machine off a wakeup calendar: min-heaps
	// of component wakeup times plus a dirty set of perturbed processors,
	// so each visited cycle steps only the CPUs that can act and the next
	// cycle is a heap pop. It is the strategy run-ahead falls back to
	// outside its envelope, and the service's wire default. It keeps the
	// zero value because Result.Config.Sched is serialised as a number.
	SchedCalendar SchedKind = iota
	// SchedPolling is the original strategy: every visited cycle steps
	// every processor and rescans every component for the next event
	// time. Kept for differential testing against the calendar.
	SchedPolling
	// SchedParallel (run-ahead, the default) sweeps the same wakeup
	// calendar but speculatively runs each processor through its
	// purely-local event stretches (execution bursts and cache hits)
	// ahead of the global clock, committing the speculation in calendar
	// order and rolling it back when a bus snoop invalidates it. Every
	// bus transaction is ordered exactly as under SchedCalendar, so
	// results are bit-identical. A machine outside its envelope (more
	// than 64 CPUs, or a streamed source that cannot rewind) silently
	// takes the calendar strategy. See parallel.go and DESIGN §16.
	SchedParallel
)

func (s SchedKind) String() string {
	switch s {
	case SchedCalendar:
		return "calendar"
	case SchedPolling:
		return "polling"
	case SchedParallel:
		return "parallel"
	default:
		return fmt.Sprintf("SchedKind(%d)", uint8(s))
	}
}

// Schedulers lists every scheduler kind in wire-name order. It is the
// single source of truth for CLI flags and the service's capabilities
// endpoint, so the advertised set cannot drift from the implementation.
func Schedulers() []SchedKind {
	return []SchedKind{SchedCalendar, SchedPolling, SchedParallel}
}

// SchedulerNames returns the wire names of every scheduler kind.
func SchedulerNames() []string {
	kinds := Schedulers()
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.String()
	}
	return names
}

// ParseSched resolves a scheduler wire name. The empty string selects the
// default scheduler, DefaultConfig().Sched (run-ahead).
func ParseSched(name string) (SchedKind, error) {
	switch name {
	case "":
		return DefaultConfig().Sched, nil
	case SchedCalendar.String():
		return SchedCalendar, nil
	case SchedPolling.String():
		return SchedPolling, nil
	case SchedParallel.String():
		return SchedParallel, nil
	default:
		return 0, fmt.Errorf("machine: unknown scheduler %q", name)
	}
}

// Config assembles the architectural parameters of a simulated machine.
type Config struct {
	Cache       cache.Config
	BusTiming   bus.Timing
	Memory      memory.Config
	BufDepth    int // cache-bus interface buffer entries (paper: 4)
	Lock        locks.Algorithm
	Consistency Consistency

	// Sched selects the run loop's phase-B strategy; all produce identical
	// results (see SchedKind). DefaultConfig selects run-ahead; the zero
	// value is the calendar scheduler.
	Sched SchedKind

	// BackoffBase and BackoffMax bound the exponential backoff of the
	// TTSBackoff lock algorithm, in cycles. Zero values select defaults
	// (4 and 256).
	BackoffBase uint64
	BackoffMax  uint64

	// Check enables the runtime invariant checker: after every completed
	// bus transaction the machine asserts Illinois coherence across all
	// caches and buffers, bus-cycle conservation, lock mutual exclusion
	// and queuing-lock FIFO fairness, and per-CPU time monotonicity; at
	// end of run it additionally asserts reference conservation and a
	// fully drained machine. Violations abort the run with an error that
	// wraps ErrInvariant. Costs roughly half again the simulation time
	// (see BenchmarkCheckerOverhead and BENCH_seed.json).
	Check bool
	// Fault injects a deliberate protocol bug (see Fault); tests use it
	// to prove the checker and the differential harness catch real
	// coherence errors.
	Fault Fault

	// MaxCycles aborts the run as soon as the simulated clock reaches it
	// (deadlock guard): cycles 0..MaxCycles-1 may execute, and a machine
	// still incomplete at cycle MaxCycles fails exactly there. Zero means
	// no limit.
	MaxCycles uint64
	// CancelEvery is the simulation-loop iteration interval at which
	// RunCtx polls its context for cancellation or deadline expiry. The
	// check is kept off the per-cycle hot path; zero selects a coarse
	// default (8192 iterations, well under a millisecond of wall time).
	CancelEvery uint64
	// ProgressWindow aborts the run if no component makes progress for
	// this many consecutive cycles. Zero selects a generous default.
	ProgressWindow uint64
}

// DefaultConfig returns the paper's machine: 64 KB 2-way caches with
// 16-byte lines, 4-entry cache-bus buffers, split-transaction bus, 3-cycle
// memory with 2-entry buffers, queuing locks, sequential consistency —
// simulated under the run-ahead scheduler.
func DefaultConfig() Config {
	return Config{
		Cache:       cache.DefaultConfig(),
		BusTiming:   bus.DefaultTiming(),
		Memory:      memory.DefaultConfig(),
		BufDepth:    4,
		Lock:        locks.Queue,
		Consistency: SeqConsistent,
		Sched:       SchedParallel,
	}
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if err := c.Cache.Validate(); err != nil {
		return err
	}
	if err := c.Memory.Validate(); err != nil {
		return err
	}
	if c.BufDepth <= 0 {
		return fmt.Errorf("machine: buffer depth must be positive, got %d", c.BufDepth)
	}
	if c.BusTiming.Request == 0 || c.BusTiming.LineData == 0 {
		return fmt.Errorf("machine: bus timing cycles must be positive, got %+v", c.BusTiming)
	}
	switch c.Lock {
	case locks.Queue, locks.TTS, locks.QueueExact, locks.TTSBackoff:
	default:
		return fmt.Errorf("machine: unknown lock algorithm %v", c.Lock)
	}
	switch c.Consistency {
	case SeqConsistent, WeakOrdering:
	default:
		return fmt.Errorf("machine: unknown consistency model %v", c.Consistency)
	}
	switch c.Sched {
	case SchedCalendar, SchedPolling, SchedParallel:
	default:
		return fmt.Errorf("machine: unknown scheduler %v", c.Sched)
	}
	switch c.Fault {
	case FaultNone, FaultSkipInvalidate:
	default:
		return fmt.Errorf("machine: unknown fault injection %d", c.Fault)
	}
	return nil
}
