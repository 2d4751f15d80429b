package machine

import (
	"reflect"
	"testing"

	"syncsim/internal/locks"
	"syncsim/internal/trace"
)

// contentionTraces builds a workload with real cross-CPU traffic — a hot
// lock, a shared hot line under write contention, per-CPU private lines and
// a closing barrier — so speculative leases are created, snooped, rolled
// back and replayed, not just committed untouched.
func contentionTraces(ncpu int) [][]trace.Event {
	cpus := make([][]trace.Event, ncpu)
	for i := range cpus {
		private := 0x4000 + uint32(i)*0x100
		cpus[i] = []trace.Event{
			trace.Exec(uint32(1 + i%7)),
			trace.Read(0x1000), // shared hot line
			trace.Write(private),
			trace.Exec(uint32(2 + i%3)),
			trace.Read(private),
			trace.Lock(0, 0x9000),
			trace.Exec(3),
			trace.Write(0x1000), // invalidation storm inside the CS
			trace.Unlock(0, 0x9000),
			trace.Read(private),
			trace.Write(private + 16),
			trace.Barrier(0),
			trace.Exec(2),
			trace.Read(0x1000),
		}
	}
	return cpus
}

// TestParallelSchedEquivalence pins the speculative scheduler to the
// calendar bit-for-bit, invariant checker ON in both runs, across lock
// algorithms and both consistency models. The checker makes this the strongest machine-level gate: every committed
// state the speculation produces must also satisfy the Illinois, lock and
// monotonicity invariants mid-run.
func TestParallelSchedEquivalence(t *testing.T) {
	const ncpu = 12
	cpus := contentionTraces(ncpu)

	runWith := func(sched SchedKind, alg locks.Algorithm, cons Consistency) *Result {
		t.Helper()
		cfg := defCfg()
		cfg.Sched = sched
		cfg.Check = true
		cfg.Lock = alg
		cfg.Consistency = cons
		set := trace.BufferSet("contention", cpus)
		m, err := New(set, cfg)
		if err != nil {
			t.Fatalf("New(%v): %v", sched, err)
		}
		if sched == SchedParallel && m.par == nil {
			t.Fatalf("parallel executor not built for %d CPUs with rewindable sources", ncpu)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("Run(%v %v %v): %v", sched, alg, cons, err)
		}
		res.Config = Config{}
		res.Sched = SchedStats{}
		return res
	}

	for _, alg := range []locks.Algorithm{locks.Queue, locks.TTS, locks.TTSBackoff} {
		for _, cons := range []Consistency{SeqConsistent, WeakOrdering} {
			calendar := runWith(SchedCalendar, alg, cons)
			parallel := runWith(SchedParallel, alg, cons)
			if !reflect.DeepEqual(calendar, parallel) {
				t.Errorf("%v/%v: parallel diverges from calendar:\ncalendar: %+v\nparallel: %+v",
					alg, cons, calendar, parallel)
			}
		}
	}
}

// TestParallelFallbackManyCPUs: above 64 processors the holder index is not
// built, which is outside the speculative executor's envelope — the machine
// must fall back to the plain calendar strategy and still match it exactly.
func TestParallelFallbackManyCPUs(t *testing.T) {
	const ncpu = 72
	cpus := contentionTraces(ncpu)
	run := func(sched SchedKind) *Result {
		cfg := defCfg()
		cfg.Sched = sched
		cfg.Check = true
		set := trace.BufferSet("manycpu", cpus)
		m, err := New(set, cfg)
		if err != nil {
			t.Fatalf("New(%v): %v", sched, err)
		}
		if sched == SchedParallel && m.par != nil {
			t.Fatalf("parallel executor built for %d CPUs, want calendar fallback above 64", ncpu)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("Run(%v): %v", sched, err)
		}
		res.Config = Config{}
		res.Sched = SchedStats{}
		return res
	}
	if calendar, parallel := run(SchedCalendar), run(SchedParallel); !reflect.DeepEqual(calendar, parallel) {
		t.Errorf("fallback diverges from calendar:\ncalendar: %+v\nfallback: %+v", calendar, parallel)
	}
}

// TestParallelFallbackNonRewindable: a source that cannot Mark/Seek cannot
// be rolled back, so the machine must decline to speculate and fall back to
// the calendar strategy.
func TestParallelFallbackNonRewindable(t *testing.T) {
	const ncpu = 4
	cpus := contentionTraces(ncpu)
	mkSet := func(wrap bool) *trace.Set {
		set := trace.BufferSet("nonrewind", cpus)
		if wrap {
			for i, src := range set.Sources {
				s := src
				// trace.Func forwards Next but implements nothing else.
				set.Sources[i] = trace.Func(func() (trace.Event, bool) { return s.Next() })
			}
		}
		return set
	}
	cfg := defCfg()
	cfg.Sched = SchedParallel
	m, err := New(mkSet(true), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.par != nil {
		t.Fatal("parallel executor built over non-rewindable sources")
	}
	got, err := m.Run()
	if err != nil {
		t.Fatalf("fallback run: %v", err)
	}
	cfg2 := defCfg()
	m2, err := New(mkSet(false), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m2.Run()
	if err != nil {
		t.Fatal(err)
	}
	got.Config, want.Config = Config{}, Config{}
	got.Sched, want.Sched = SchedStats{}, SchedStats{}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fallback diverges from calendar:\ncalendar: %+v\nfallback: %+v", want, got)
	}
}
