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

// schedWork pins each scheduler's own work at the golden corpus scale:
// the cycles its loop visited and the processor steps it made, keyed by
// benchmark/model/scheduler. Nothing else in the results records them, so
// this table is what notices a run-loop change that alters how a
// scheduler finds its work while leaving every architectural result alone.
var schedWork = map[string]machine.SchedStats{
	"FullConn/queue/calendar": {Iterations: 93777, Steps: 237876},
	"FullConn/queue/parallel": {Iterations: 33333, Steps: 237877},
	"FullConn/queue/polling":  {Iterations: 94949, Steps: 1139388},
	"FullConn/tts/calendar":   {Iterations: 94767, Steps: 238356},
	"FullConn/tts/parallel":   {Iterations: 33800, Steps: 238356},
	"FullConn/tts/polling":    {Iterations: 96089, Steps: 1153068},
	"FullConn/wo/calendar":    {Iterations: 93706, Steps: 237798},
	"FullConn/wo/parallel":    {Iterations: 33523, Steps: 237658},
	"FullConn/wo/polling":     {Iterations: 94763, Steps: 1137156},
	"Grav/queue/calendar":     {Iterations: 163653, Steps: 225921},
	"Grav/queue/parallel":     {Iterations: 46231, Steps: 225963},
	"Grav/queue/polling":      {Iterations: 163606, Steps: 1636060},
	"Grav/tts/calendar":       {Iterations: 179645, Steps: 251531},
	"Grav/tts/parallel":       {Iterations: 66245, Steps: 251566},
	"Grav/tts/polling":        {Iterations: 181763, Steps: 1817630},
	"Grav/wo/calendar":        {Iterations: 164681, Steps: 225060},
	"Grav/wo/parallel":        {Iterations: 50472, Steps: 222569},
	"Grav/wo/polling":         {Iterations: 164785, Steps: 1647850},
	"Pdsa/queue/calendar":     {Iterations: 127541, Steps: 324327},
	"Pdsa/queue/parallel":     {Iterations: 40198, Steps: 324329},
	"Pdsa/queue/polling":      {Iterations: 127578, Steps: 1530936},
	"Pdsa/tts/calendar":       {Iterations: 141361, Steps: 338025},
	"Pdsa/tts/parallel":       {Iterations: 50901, Steps: 338026},
	"Pdsa/tts/polling":        {Iterations: 141666, Steps: 1699992},
	"Pdsa/wo/calendar":        {Iterations: 128004, Steps: 324164},
	"Pdsa/wo/parallel":        {Iterations: 42483, Steps: 322619},
	"Pdsa/wo/polling":         {Iterations: 128056, Steps: 1536672},
	"Pverify/queue/calendar":  {Iterations: 129434, Steps: 546430},
	"Pverify/queue/parallel":  {Iterations: 35021, Steps: 546430},
	"Pverify/queue/polling":   {Iterations: 130195, Steps: 1562340},
	"Pverify/tts/calendar":    {Iterations: 129805, Steps: 546720},
	"Pverify/tts/parallel":    {Iterations: 35041, Steps: 546720},
	"Pverify/tts/polling":     {Iterations: 130718, Steps: 1568616},
	"Pverify/wo/calendar":     {Iterations: 129044, Steps: 546009},
	"Pverify/wo/parallel":     {Iterations: 36446, Steps: 545635},
	"Pverify/wo/polling":      {Iterations: 129791, Steps: 1557492},
	"Qsort/queue/calendar":    {Iterations: 1577089, Steps: 6886648},
	"Qsort/queue/parallel":    {Iterations: 649676, Steps: 6887132},
	"Qsort/queue/polling":     {Iterations: 1578078, Steps: 18936936},
	"Qsort/tts/calendar":      {Iterations: 1578311, Steps: 6886352},
	"Qsort/tts/parallel":      {Iterations: 647853, Steps: 6886881},
	"Qsort/tts/polling":       {Iterations: 1579337, Steps: 18952044},
	"Qsort/wo/calendar":       {Iterations: 1498437, Steps: 6847669},
	"Qsort/wo/parallel":       {Iterations: 741496, Steps: 6751108},
	"Qsort/wo/polling":        {Iterations: 1499505, Steps: 17994060},
	"Topopt/queue/calendar":   {Iterations: 241730, Steps: 741005},
	"Topopt/queue/parallel":   {Iterations: 39953, Steps: 741005},
	"Topopt/queue/polling":    {Iterations: 242629, Steps: 2183661},
	"Topopt/tts/calendar":     {Iterations: 241730, Steps: 741005},
	"Topopt/tts/parallel":     {Iterations: 39953, Steps: 741005},
	"Topopt/tts/polling":      {Iterations: 242629, Steps: 2183661},
	"Topopt/wo/calendar":      {Iterations: 241712, Steps: 740940},
	"Topopt/wo/parallel":      {Iterations: 40013, Steps: 740897},
	"Topopt/wo/polling":       {Iterations: 242665, Steps: 2183985},
}

// assertSchedWork checks every result of a suite run under sched against
// schedWork.
func assertSchedWork(t *testing.T, sched machine.SchedKind, outs []*core.Outcome) {
	t.Helper()
	for _, o := range outs {
		for _, model := range []core.Model{core.ModelQueue, core.ModelTTS, core.ModelWO} {
			key := o.Name + "/" + model.String() + "/" + sched.String()
			want, ok := schedWork[key]
			if !ok {
				t.Errorf("%s: no pinned scheduler work", key)
				continue
			}
			if got := o.Results[model].Sched; got != want {
				t.Errorf("%s: scheduler work %+v, want %+v", key, got, want)
			}
		}
	}
}

// TestSchedulerEquivalence pins the three schedulers to each other
// bit-for-bit across the full benchmark matrix: the wakeup calendar
// against the retained polling loop, and the speculative parallel
// scheduler against the calendar. It also pins each scheduler's own
// visited cycles and steps to schedWork.
func TestSchedulerEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full 6×3 matrix under three schedulers")
	}
	calendar := schedEquivSuite(t, machine.SchedCalendar)
	polling := schedEquivSuite(t, machine.SchedPolling)
	assertSuitesEqual(t, "calendar", "polling", calendar, polling)
	assertSchedWork(t, machine.SchedCalendar, calendar)
	assertSchedWork(t, machine.SchedPolling, polling)

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
	assertSchedWork(t, machine.SchedParallel, parallel)
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
