package trace_test

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"syncsim/internal/cache"
	"syncsim/internal/locks"
	"syncsim/internal/machine"
	"syncsim/internal/trace"
)

// FuzzParallelSched is the differential fuzzer for the speculative parallel
// scheduler: every well-formed decoded trace must produce bit-identical
// results under the serial calendar and under SchedParallel — invariant
// checker enabled in both — at a worker count (and GOMAXPROCS) derived from
// the input. Error behaviour must agree too: a trace that deadlocks or
// exhausts MaxCycles serially must do so at the same point in parallel;
// a run that fails on exactly one side is a scheduler bug by definition.
func FuzzParallelSched(f *testing.F) {
	add := func(name string, cpus [][]trace.Event) {
		var buf bytes.Buffer
		if err := trace.Encode(&buf, name, cpus); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	const lk = 0x2000_0040
	add("contended", [][]trace.Event{
		{trace.Exec(3), trace.Lock(1, lk), trace.Exec(20), trace.Unlock(1, lk), trace.Barrier(1), trace.End()},
		{trace.Lock(1, lk), trace.Exec(10), trace.Unlock(1, lk), trace.Barrier(1), trace.End()},
	})
	add("sharing", [][]trace.Event{
		{trace.Read(0x1000), trace.Write(0x1000), trace.Read(0x2000), trace.End()},
		{trace.Read(0x1000), trace.Write(0x2000), trace.ReadAfter(0x1000, 4), trace.End()},
	})
	add("speculative", [][]trace.Event{
		{trace.Exec(40), trace.Read(0x1000), trace.Read(0x1010), trace.Read(0x1020), trace.Write(0x1000), trace.End()},
		{trace.Read(0x1000), trace.Exec(5), trace.Write(0x1000), trace.Exec(30), trace.Read(0x1010), trace.End()},
	})

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	f.Fuzz(func(t *testing.T, data []byte) {
		_, cpus, err := trace.Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(cpus) == 0 || len(cpus) > fuzzMaxCPUs {
			return
		}
		events, work := 0, uint64(0)
		for _, evs := range cpus {
			events += len(evs)
			for _, ev := range evs {
				if ev.Kind == trace.KindExec {
					work += uint64(ev.Arg)
				}
			}
		}
		if events > fuzzMaxEvents || work > fuzzMaxWork {
			return
		}
		if trace.Validate(cpus) != nil {
			return
		}

		// The serial side pins calendar: the default is run-ahead, so
		// leaving it implicit would compare run-ahead with itself.
		cfg := machine.DefaultConfig()
		cfg.Sched = machine.SchedCalendar
		cfg.Cache = cache.Config{Size: 512, LineSize: 16, Assoc: 1}
		cfg.Check = true
		cfg.MaxCycles = 5_000_000
		algs := []locks.Algorithm{locks.Queue, locks.TTS, locks.QueueExact, locks.TTSBackoff}
		cfg.Lock = algs[len(data)%len(algs)]
		if len(data)%2 == 1 {
			cfg.Consistency = machine.WeakOrdering
		}

		serial, serr := machine.Run(trace.BufferSet("fuzz", cpus), cfg)

		pcfg := cfg
		pcfg.Sched = machine.SchedParallel
		parallel, perr := machine.Run(trace.BufferSet("fuzz", cpus), pcfg)

		switch {
		case serr != nil && perr != nil:
			return // both fail (resource limits, deadlock): agreement is enough
		case serr != nil || perr != nil:
			t.Fatalf("schedulers disagree on failure: serial err=%v, parallel err=%v", serr, perr)
		}
		s, p := *serial, *parallel
		s.Config, p.Config = machine.Config{}, machine.Config{}
		s.Sched, p.Sched = machine.SchedStats{}, machine.SchedStats{}
		if !reflect.DeepEqual(s, p) {
			t.Fatalf("parallel result diverges from serial calendar:\nserial:   %+v\nparallel: %+v", s, p)
		}
	})
}
