// Quickstart: generate one of the paper's benchmarks, simulate it on the
// modelled shared-bus multiprocessor, and print the headline metrics.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"syncsim"
)

func main() {
	// Pick Pdsa: the simulated-annealing Presto program whose scheduler
	// locks make it one of the paper's two high-contention benchmarks.
	bench, err := syncsim.BenchmarkByName("Pdsa")
	if err != nil {
		log.Fatal(err)
	}

	// Run it at 1/10 of the traced length under the paper's baseline
	// machine (sequential consistency, queuing locks).
	out, err := syncsim.RunBenchmarkCtx(context.Background(), bench,
		syncsim.WithScale(0.1),
		syncsim.WithSeed(1),
		syncsim.WithModels(syncsim.ModelQueue),
	)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s on %d processors\n", out.Name, out.Ideal.NCPU)
	fmt.Printf("  ideal work:   %.0f cycles per processor\n", out.Ideal.WorkCycles)
	fmt.Printf("  lock pairs:   %.0f per processor (%.0f nested)\n",
		out.Ideal.LockPairs, out.Ideal.NestedLocks)
	fmt.Printf("  locked time:  %.1f%% of ideal execution\n", out.Ideal.PctTime)

	res := out.Results[syncsim.ModelQueue]
	cachePct, lockPct, _ := res.StallBreakdown()
	fmt.Printf("\nsimulated on the shared-bus machine:\n")
	fmt.Printf("  run-time:     %d cycles\n", res.RunTime)
	fmt.Printf("  utilisation:  %.1f%%  (paper: 40.3%%)\n", 100*res.AvgUtilization())
	fmt.Printf("  stall causes: %.1f%% cache miss, %.1f%% lock wait (paper: 10.2 / 89.5)\n",
		cachePct, lockPct)
	fmt.Printf("  waiters at each lock transfer: %.2f of %d processors (paper: 6.18)\n",
		res.Locks.AvgWaitersAtTransfer(), out.Ideal.NCPU)
}
