// Benchmarks that regenerate every table of the paper's evaluation, one
// testing.B benchmark per table, plus the ablations discussed in the text
// (§2.1: bus/memory cycle times; §4.2: cache-bus buffer depth).
//
// Each benchmark reports the table's headline quantities through
// b.ReportMetric, so `go test -bench=.` doubles as a compact reproduction
// log. benchScale keeps iterations fast; intensive metrics (utilisation,
// waiters, hold times, percentages) are scale-invariant and directly
// comparable with the paper.
package syncsim

import (
	"bytes"
	"fmt"
	"testing"

	"syncsim/internal/core"
	"syncsim/internal/locks"
	"syncsim/internal/machine"
	"syncsim/internal/stats"
	"syncsim/internal/trace"
	"syncsim/internal/workload"
	"syncsim/internal/workload/addr"
	"syncsim/internal/workload/suite"
)

const benchScale = 0.05

// genOnce generates a benchmark trace once per process and replays it.
var genCache = map[string]*trace.Set{}

func benchTrace(b *testing.B, name string) *trace.Set {
	b.Helper()
	if set, ok := genCache[name]; ok {
		if err := trace.Reset(set); err != nil {
			b.Fatal(err)
		}
		return set
	}
	bench, err := suite.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	set, err := bench.Program.Generate(workload.Params{Scale: benchScale, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	genCache[name] = set
	return set
}

func simulate(b *testing.B, name string, model core.Model) *machine.Result {
	b.Helper()
	set := benchTrace(b, name)
	if err := trace.Reset(set); err != nil {
		b.Fatal(err)
	}
	res, err := machine.Run(set, model.MachineConfig(machine.DefaultConfig()))
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTable1IdealStats regenerates Table 1: the ideal per-processor
// work and reference statistics of every benchmark.
func BenchmarkTable1IdealStats(b *testing.B) {
	for _, name := range suite.Names() {
		b.Run(name, func(b *testing.B) {
			var s trace.Summary
			for i := 0; i < b.N; i++ {
				set := benchTrace(b, name)
				s = trace.AnalyzeIdeal(set, addr.Shared).Summarize()
			}
			b.ReportMetric(s.WorkCycles/1000/benchScale, "workKcyc/cpu")
			b.ReportMetric(s.Refs/1000/benchScale, "refsK/cpu")
			b.ReportMetric(s.SharedRefs/1000/benchScale, "sharedK/cpu")
		})
	}
}

// BenchmarkTable2IdealLocks regenerates Table 2: the ideal lock statistics.
func BenchmarkTable2IdealLocks(b *testing.B) {
	for _, name := range suite.Names() {
		b.Run(name, func(b *testing.B) {
			var s trace.Summary
			for i := 0; i < b.N; i++ {
				set := benchTrace(b, name)
				s = trace.AnalyzeIdeal(set, addr.Shared).Summarize()
			}
			b.ReportMetric(s.LockPairs/benchScale, "pairs/cpu")
			b.ReportMetric(s.NestedLocks/benchScale, "nested/cpu")
			b.ReportMetric(s.AvgHeld, "heldCycles")
			b.ReportMetric(s.PctTime, "pctLocked")
		})
	}
}

func runtimeBench(b *testing.B, model core.Model) {
	for _, name := range suite.Names() {
		if model == core.ModelTTS && name == "Topopt" {
			continue // the paper's Table 5 omits the lock-free program
		}
		b.Run(name, func(b *testing.B) {
			var res *machine.Result
			for i := 0; i < b.N; i++ {
				res = simulate(b, name, model)
			}
			cachePct, lockPct, _ := res.StallBreakdown()
			b.ReportMetric(float64(res.RunTime), "cycles")
			b.ReportMetric(100*res.AvgUtilization(), "util%")
			b.ReportMetric(cachePct, "cacheStall%")
			b.ReportMetric(lockPct, "lockStall%")
		})
	}
}

func contentionBench(b *testing.B, model core.Model) {
	for _, name := range suite.Names() {
		if name == "Topopt" {
			continue // no locks
		}
		b.Run(name, func(b *testing.B) {
			var res *machine.Result
			for i := 0; i < b.N; i++ {
				res = simulate(b, name, model)
			}
			b.ReportMetric(res.Locks.AvgHold(), "heldCycles")
			b.ReportMetric(float64(res.Locks.Transfers)/benchScale, "transfers")
			b.ReportMetric(res.Locks.AvgWaitersAtTransfer(), "waiters")
			b.ReportMetric(res.Locks.AvgTransferTime(), "xferCycles")
		})
	}
}

// BenchmarkTable3RuntimeQueue regenerates Table 3 (queuing locks, SC).
func BenchmarkTable3RuntimeQueue(b *testing.B) { runtimeBench(b, core.ModelQueue) }

// BenchmarkTable4ContentionQueue regenerates Table 4.
func BenchmarkTable4ContentionQueue(b *testing.B) { contentionBench(b, core.ModelQueue) }

// BenchmarkTable5RuntimeTTS regenerates Table 5 (test&test&set).
func BenchmarkTable5RuntimeTTS(b *testing.B) { runtimeBench(b, core.ModelTTS) }

// BenchmarkTable6ContentionTTS regenerates Table 6.
func BenchmarkTable6ContentionTTS(b *testing.B) { contentionBench(b, core.ModelTTS) }

// BenchmarkTable7WeakOrdering regenerates Table 7: weak-ordering run-times
// and their difference against the sequentially consistent baseline.
func BenchmarkTable7WeakOrdering(b *testing.B) {
	for _, name := range suite.Names() {
		b.Run(name, func(b *testing.B) {
			var sc, wo *machine.Result
			for i := 0; i < b.N; i++ {
				sc = simulate(b, name, core.ModelQueue)
				wo = simulate(b, name, core.ModelWO)
			}
			b.ReportMetric(float64(wo.RunTime), "cycles")
			b.ReportMetric(100*wo.AvgUtilization(), "util%")
			b.ReportMetric(stats.DiffPct(sc, wo), "diff%")
			b.ReportMetric(100*wo.WriteHitRatio(), "writeHit%")
		})
	}
}

// BenchmarkTable8ContentionWO regenerates Table 8.
func BenchmarkTable8ContentionWO(b *testing.B) { contentionBench(b, core.ModelWO) }

// BenchmarkSlowdownDecomposition regenerates the §3.2 analysis for the two
// high-contention programs.
func BenchmarkSlowdownDecomposition(b *testing.B) {
	for _, name := range []string{"Grav", "Pdsa"} {
		b.Run(name, func(b *testing.B) {
			var dec stats.Decomposition
			for i := 0; i < b.N; i++ {
				q := simulate(b, name, core.ModelQueue)
				t := simulate(b, name, core.ModelTTS)
				dec = stats.Decompose(q, t)
			}
			tp, hp, bp := dec.Percentages()
			b.ReportMetric(dec.SlowdownPct(), "slowdown%")
			b.ReportMetric(tp, "transfer%")
			b.ReportMetric(hp, "hold%")
			b.ReportMetric(bp, "bus%")
		})
	}
}

// BenchmarkAblationBufferDepth sweeps the cache-bus buffer depth (§4.2:
// "it is debatable whether cache-bus buffers should be as deep as those we
// simulated") under weak ordering, where the buffer matters most.
func BenchmarkAblationBufferDepth(b *testing.B) {
	for _, depth := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			var res *machine.Result
			for i := 0; i < b.N; i++ {
				set := benchTrace(b, "Qsort")
				if err := trace.Reset(set); err != nil {
					b.Fatal(err)
				}
				cfg := core.ModelWO.MachineConfig(machine.DefaultConfig())
				cfg.BufDepth = depth
				var err error
				res, err = machine.Run(set, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.RunTime), "cycles")
			b.ReportMetric(100*res.AvgUtilization(), "util%")
		})
	}
}

// BenchmarkAblationLatency sweeps memory access time (§2.1: the authors
// varied bus and memory cycle times without changing the trends; §4.2: a
// higher miss penalty would make weak ordering worthwhile).
func BenchmarkAblationLatency(b *testing.B) {
	for _, mem := range []uint64{3, 6, 12, 24} {
		b.Run(fmt.Sprintf("mem=%d", mem), func(b *testing.B) {
			var sc, wo *machine.Result
			for i := 0; i < b.N; i++ {
				base := machine.DefaultConfig()
				base.Memory.AccessTime = mem

				set := benchTrace(b, "Qsort")
				var err error
				sc, err = machine.Run(set, core.ModelQueue.MachineConfig(base))
				if err != nil {
					b.Fatal(err)
				}
				set = benchTrace(b, "Qsort")
				wo, err = machine.Run(set, core.ModelWO.MachineConfig(base))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(sc.RunTime), "scCycles")
			b.ReportMetric(stats.DiffPct(sc, wo), "woGain%")
		})
	}
}

// BenchmarkAblationLockAlgorithm compares all four implemented lock
// algorithms on the highest-contention benchmark. queue vs queue-exact
// answers the paper's §2.4 open question: how much do the approximation's
// two omitted bus transactions matter?
func BenchmarkAblationLockAlgorithm(b *testing.B) {
	for _, alg := range []locks.Algorithm{locks.Queue, locks.QueueExact, locks.TTS, locks.TTSBackoff} {
		b.Run(alg.String(), func(b *testing.B) {
			var res *machine.Result
			for i := 0; i < b.N; i++ {
				set := benchTrace(b, "Grav")
				if err := trace.Reset(set); err != nil {
					b.Fatal(err)
				}
				cfg := machine.DefaultConfig()
				cfg.Lock = alg
				var err error
				res, err = machine.Run(set, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.RunTime), "cycles")
			b.ReportMetric(100*res.AvgUtilization(), "util%")
			b.ReportMetric(res.Locks.AvgTransferTime(), "xferCycles")
			b.ReportMetric(100*res.BusUtilization(), "bus%")
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed in simulated
// cycles and trace events per second.
func BenchmarkSimulatorThroughput(b *testing.B) {
	set := benchTrace(b, "Pverify")
	var events int64
	for _, src := range set.Sources {
		for {
			if _, ok := src.Next(); !ok {
				break
			}
			events++
		}
	}
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		if err := trace.Reset(set); err != nil {
			b.Fatal(err)
		}
		res, err := machine.Run(set, machine.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.RunTime
	}
	b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds(), "simCycles/s")
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkCheckerOverhead measures what the runtime invariant checker
// (machine.Config.Check) costs on a representative contended workload: the
// "off" and "on" sub-benchmarks simulate the same trace, so their ratio is
// the checker's overhead.
func BenchmarkCheckerOverhead(b *testing.B) {
	for _, mode := range []struct {
		name  string
		check bool
	}{{"off", false}, {"on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := machine.DefaultConfig()
			cfg.Check = mode.check
			var cycles uint64
			for i := 0; i < b.N; i++ {
				set := benchTrace(b, "Grav")
				res, err := machine.Run(set, cfg)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.RunTime
			}
			b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds(), "simCycles/s")
		})
	}
}

// BenchmarkGeneration measures workload generation speed.
func BenchmarkGeneration(b *testing.B) {
	for _, bench := range suite.All() {
		b.Run(bench.Program.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.Program.Generate(workload.Params{Scale: benchScale, Seed: int64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTraceCodec measures the binary container round trip.
func BenchmarkTraceCodec(b *testing.B) {
	set := benchTrace(b, "Pdsa")
	cpus := make([][]trace.Event, set.NCPU())
	for i, src := range set.Sources {
		cpus[i] = trace.Drain(src)
	}
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := trace.Encode(&buf, "bench", cpus); err != nil {
			b.Fatal(err)
		}
		if _, _, err := trace.Decode(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

// BenchmarkMachineRun times machine.Run alone — no trace generation, no
// ideal analysis — on every benchmark × machine model under the default
// wakeup-calendar scheduler. This is the suite the CI benchmark regression
// gate watches (alongside BenchmarkCheckerOverhead).
func BenchmarkMachineRun(b *testing.B) {
	for _, name := range suite.Names() {
		for _, model := range []core.Model{core.ModelQueue, core.ModelTTS, core.ModelWO} {
			b.Run(fmt.Sprintf("%s/%s", name, model), func(b *testing.B) {
				var cycles uint64
				for i := 0; i < b.N; i++ {
					set := benchTrace(b, name)
					res, err := machine.Run(set, model.MachineConfig(machine.DefaultConfig()))
					if err != nil {
						b.Fatal(err)
					}
					cycles = res.RunTime
				}
				b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds(), "simCycles/s")
			})
		}
	}
}

// BenchmarkMachineRunParallel is BenchmarkMachineRun under the speculative
// parallel scheduler, which the CI regression gate watches. The speedup
// over BenchmarkMachineRun is purely algorithmic: leased stretches skip
// the per-visited-cycle calendar machinery.
func BenchmarkMachineRunParallel(b *testing.B) {
	for _, name := range suite.Names() {
		for _, model := range []core.Model{core.ModelQueue, core.ModelTTS, core.ModelWO} {
			b.Run(fmt.Sprintf("%s/%s", name, model), func(b *testing.B) {
				cfg := model.MachineConfig(machine.DefaultConfig())
				cfg.Sched = machine.SchedParallel
				var cycles uint64
				for i := 0; i < b.N; i++ {
					set := benchTrace(b, name)
					res, err := machine.Run(set, cfg)
					if err != nil {
						b.Fatal(err)
					}
					cycles = res.RunTime
				}
				b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds(), "simCycles/s")
			})
		}
	}
}
