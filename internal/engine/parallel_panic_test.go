package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"syncsim/internal/machine"
	"syncsim/internal/trace"
	"syncsim/internal/workload"
)

// poisonedCursor is a rewindable trace cursor that panics after a fixed
// number of events — a poisoned trace discovered mid-speculation. The
// canonical cursor handed to the ideal analyser is disarmed (left < 0);
// only the per-task clones the engine simulates from are armed, so the
// panic fires inside the machine's parallel scheduler, not during
// generation or analysis.
type poisonedCursor struct {
	inner *trace.Buffer
	left  int // events to yield before panicking; negative = disarmed
}

func (p *poisonedCursor) Next() (trace.Event, bool) {
	if p.left == 0 {
		panic("poisonedCursor: poisoned event")
	}
	if p.left > 0 {
		p.left--
	}
	return p.inner.Next()
}

func (p *poisonedCursor) Mark() trace.Mark  { return p.inner.Mark() }
func (p *poisonedCursor) Seek(m trace.Mark) { p.inner.Seek(m) }
func (p *poisonedCursor) Rewind()           { p.inner.Rewind() }

func (p *poisonedCursor) CloneSource() trace.Source {
	return &poisonedCursor{inner: trace.NewBuffer(p.inner.Events), left: 1}
}

// poisonedParProgram generates a contended workload whose per-task trace
// clones panic on their second event. With the parallel scheduler every
// CPU is speculatively leasable at cycle 0, so the panic lands inside a
// speculative advance.
type poisonedParProgram struct{ ncpu int }

func (p *poisonedParProgram) Name() string     { return "poisoned-par" }
func (p *poisonedParProgram) DefaultNCPU() int { return p.ncpu }

func (p *poisonedParProgram) Generate(q workload.Params) (*trace.Set, error) {
	q = q.WithDefaults(p.ncpu)
	cpus := make([][]trace.Event, q.NCPU)
	for i := range cpus {
		private := 0x4000 + uint32(i)*0x100
		cpus[i] = []trace.Event{
			trace.Exec(uint32(1 + i%7)), // consumed by the first advance
			trace.Read(0x1000),          // second Next: the poisoned one
			trace.Write(private),
			trace.Lock(0, 0x9000),
			trace.Write(0x1000),
			trace.Unlock(0, 0x9000),
			trace.Barrier(0),
		}
	}
	set := trace.BufferSet(p.Name(), cpus)
	for i, src := range set.Sources {
		set.Sources[i] = &poisonedCursor{inner: src.(*trace.Buffer), left: -1}
	}
	return set, nil
}

func parallelCfg() machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Sched = machine.SchedParallel
	return cfg
}

// TestParallelSchedPanicIsolation: a panic inside the parallel
// scheduler's speculative advance crosses the engine's task pool and must
// still arrive as an ordinary *PanicError naming the job, with the pool
// torn down (leakCheck) and the engine serviceable for further parallel
// runs.
func TestParallelSchedPanicIsolation(t *testing.T) {
	leakCheck(t)

	prog := &poisonedParProgram{ncpu: 8}
	eng := New(Config{Workers: 2})
	task := Task{Program: prog, Params: workload.Params{Scale: 1, Seed: 1},
		Label: "par", Config: parallelCfg(), Metrics: true}
	_, _, err := eng.Run(context.Background(), []Task{task})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	msg := fmt.Sprint(pe.Value)
	if !strings.Contains(msg, "poisoned") {
		t.Errorf("panic value %q is not the poisoned cursor's", msg)
	}
	if !strings.Contains(pe.Job, "poisoned-par") {
		t.Errorf("job = %q, want it to name the workload", pe.Job)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError carries no stack")
	}

	// The engine still executes healthy parallel-scheduled tasks.
	good := &fakeProgram{name: "fine-par", ncpu: 4, pairs: 8}
	gt := Task{Program: good, Params: workload.Params{Scale: 1, Seed: 1},
		Label: "par", Config: parallelCfg(), Metrics: true}
	results, _, err := eng.Run(context.Background(), []Task{gt})
	if err != nil {
		t.Fatalf("engine unusable after contained scheduler panic: %v", err)
	}
	if results[0].Result == nil || results[0].Result.RunTime == 0 {
		t.Fatal("no result from post-panic parallel run")
	}
}

// TestParallelSchedSoak: a race-enabled soak of the parallel scheduler
// THROUGH the engine's task pool (suite -j) across several seeds. Every
// parallel result must be bit-identical to the calendar result for the
// same seed, and the pool must not leak.
func TestParallelSchedSoak(t *testing.T) {
	leakCheck(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	prog := &fakeProgram{name: "soak", ncpu: 6, pairs: 12}
	serial := machine.DefaultConfig()
	var tasks []Task
	for seed := int64(1); seed <= 4; seed++ {
		p := workload.Params{Scale: 1, Seed: seed}
		tasks = append(tasks,
			Task{Program: prog, Params: p, Label: fmt.Sprintf("cal/%d", seed), Config: serial},
			Task{Program: prog, Params: p, Label: fmt.Sprintf("par/%d", seed), Config: parallelCfg()},
		)
	}
	eng := New(Config{Workers: 3})
	results, _, err := eng.Run(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(results); i += 2 {
		cal, par := *results[i].Result, *results[i+1].Result
		cal.Config, par.Config = machine.Config{}, machine.Config{}
		cal.Sched, par.Sched = machine.SchedStats{}, machine.SchedStats{}
		if !reflect.DeepEqual(cal, par) {
			t.Errorf("%s vs %s: parallel result diverges from calendar",
				tasks[i].Label, tasks[i+1].Label)
		}
	}
}
