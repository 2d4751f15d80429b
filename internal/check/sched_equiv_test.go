package check

import (
	"context"
	"reflect"
	"testing"

	"syncsim/internal/core"
	"syncsim/internal/machine"
)

// schedEquivSuite runs the full benchmark suite at the golden corpus scale
// under the given scheduler.
func schedEquivSuite(t *testing.T, sched machine.SchedKind) []*core.Outcome {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.Sched = sched
	outs, err := core.RunSuiteCtx(context.Background(), core.Options{
		Scale:   GoldenScale,
		Seed:    GoldenSeed,
		Machine: &cfg,
	})
	if err != nil {
		t.Fatalf("suite under %v scheduler: %v", sched, err)
	}
	return outs
}

// assertSuitesEqual pins two suite runs bit-for-bit: every Result field —
// run time, every per-CPU stall counter, cache/bus/memory/lock statistics —
// must be identical across all six benchmarks and all three machine models.
// Only Config (which records the scheduler choice) and Sched (the loop's
// own work counters, whose difference IS the optimisation) are excluded.
func assertSuitesEqual(t *testing.T, aName, bName string, a, b []*core.Outcome) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("outcome counts differ: %s %d vs %s %d", aName, len(a), bName, len(b))
	}
	for i := range a {
		ao, bo := a[i], b[i]
		if ao.Name != bo.Name {
			t.Fatalf("benchmark order diverged: %s vs %s", ao.Name, bo.Name)
		}
		for _, model := range []core.Model{core.ModelQueue, core.ModelTTS, core.ModelWO} {
			ar, ok := ao.Results[model]
			if !ok {
				t.Fatalf("%s/%v: missing %s result", ao.Name, model, aName)
			}
			br := bo.Results[model]
			av, bv := *ar, *br
			av.Config, bv.Config = machine.Config{}, machine.Config{}
			av.Sched, bv.Sched = machine.SchedStats{}, machine.SchedStats{}
			if !reflect.DeepEqual(av, bv) {
				t.Errorf("%s/%v: %s and %s results diverge:\n %s: %+v\n %s: %+v",
					ao.Name, model, aName, bName, aName, av, bName, bv)
			}
		}
	}
}

// TestSchedulerEquivalence pins the three schedulers to each other
// bit-for-bit across the full benchmark matrix: the wakeup calendar
// against the retained polling loop, and the speculative parallel
// scheduler against the calendar.
func TestSchedulerEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full 6×3 matrix under three schedulers")
	}
	calendar := schedEquivSuite(t, machine.SchedCalendar)
	polling := schedEquivSuite(t, machine.SchedPolling)
	assertSuitesEqual(t, "calendar", "polling", calendar, polling)

	// The calendar must actually be doing less work, not just the same
	// sweep under a new name.
	for i := range calendar {
		for _, model := range []core.Model{core.ModelQueue, core.ModelTTS, core.ModelWO} {
			cr, pr := calendar[i].Results[model], polling[i].Results[model]
			if cr.Sched.Steps >= pr.Sched.Steps {
				t.Errorf("%s/%v: calendar stepped %d times, polling %d — no work saved",
					calendar[i].Name, model, cr.Sched.Steps, pr.Sched.Steps)
			}
		}
	}

	parallel := schedEquivSuite(t, machine.SchedParallel)
	assertSuitesEqual(t, "calendar", "parallel", calendar, parallel)
	for i := range parallel {
		for _, model := range []core.Model{core.ModelQueue, core.ModelTTS, core.ModelWO} {
			cr, pr := calendar[i].Results[model], parallel[i].Results[model]
			// Speculation must visit strictly fewer cycles than the
			// calendar: leased stretches collapse into a single wakeup
			// at the blocking cycle. (Step counts are not compared —
			// superseded post-rollback wakeups add no-op steps and
			// weak-ordering write stretches merge steps, in both
			// directions, without affecting any architectural result.)
			if pr.Sched.Iterations >= cr.Sched.Iterations {
				t.Errorf("%s/%v: parallel visited %d cycles, calendar %d — no lookahead won",
					parallel[i].Name, model, pr.Sched.Iterations, cr.Sched.Iterations)
			}
		}
	}
}
