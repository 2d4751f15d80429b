package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newGated returns a gatedProgram named name with the given size.
func newGated(name string, pairs int) *gatedProgram {
	p := newGatedProgram(nil)
	p.name, p.pairs = name, pairs
	return p
}

// simOrder records "<program>/<label>" each time a task starts simulating.
type simOrder struct {
	mu    sync.Mutex
	order []string
	onSim func(string)
}

func (o *simOrder) progress(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	name, label, ok := strings.Cut(line, ": simulating ")
	if !ok {
		return
	}
	o.mu.Lock()
	o.order = append(o.order, name+"/"+label)
	o.mu.Unlock()
	if o.onSim != nil {
		o.onSim(name + "/" + label)
	}
}

func waitOrFail(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// A worker must not block behind another worker's in-flight generation
// while a task with an unclaimed trace is pending: with 2 workers over
// [A, A, A, B], B starts while A's generation is still held.
func TestDispatchTraceFirst(t *testing.T) {
	a := newGated("A", 20)
	b := &fakeProgram{name: "B", ncpu: 2, pairs: 20}
	bStarted := make(chan struct{})
	var bOnce sync.Once
	o := &simOrder{onSim: func(s string) {
		if strings.HasPrefix(s, "B/") {
			bOnce.Do(func() { close(bStarted) })
		}
	}}
	tasks := append(simTasks(a, "a0", "a1", "a2"), simTasks(b, "b0")...)
	done := make(chan error, 1)
	go func() {
		_, _, err := New(Config{Workers: 2, Progress: o.progress}).Run(context.Background(), tasks)
		done <- err
	}()
	select {
	case <-bStarted:
	case <-time.After(10 * time.Second):
		t.Error("B did not start while A's generation was in flight")
	}
	close(a.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// With one worker every trace is generated in task order first; the
// remaining ready tasks then start largest trace first, ties by index.
func TestDispatchLongestFirst(t *testing.T) {
	s := &fakeProgram{name: "S", ncpu: 2, pairs: 10}
	m := &fakeProgram{name: "M", ncpu: 2, pairs: 40}
	l := &fakeProgram{name: "L", ncpu: 2, pairs: 80}
	tie := &fakeProgram{name: "T", ncpu: 2, pairs: 80}
	var tasks []Task
	for _, p := range []*fakeProgram{s, m, l, tie} {
		tasks = append(tasks, simTasks(p, "0", "1")...)
	}
	// Interleave so task order alone would give a different sequence.
	tasks = []Task{tasks[0], tasks[2], tasks[1], tasks[4], tasks[3], tasks[6], tasks[5], tasks[7]}
	o := &simOrder{}
	if _, _, err := New(Config{Workers: 1, Progress: o.progress}).Run(context.Background(), tasks); err != nil {
		t.Fatal(err)
	}
	want := []string{"S/0", "M/0", "L/0", "T/0", "L/1", "T/1", "M/1", "S/1"}
	if !slices.Equal(o.order, want) {
		t.Errorf("start order %v, want %v", o.order, want)
	}
}

// On a bounded cache the dispatcher keeps no more live traces than the
// capacity, so nothing is regenerated: two traces × 2 cells on a
// one-entry cache miss exactly twice, whatever the task order.
func TestDispatchCacheCap(t *testing.T) {
	for _, order := range []string{"AABB", "ABAB"} {
		t.Run(order, func(t *testing.T) {
			var calls atomic.Int32
			progs := map[byte]*fakeProgram{
				'A': {name: "A", ncpu: 2, pairs: 30, genCalls: &calls},
				'B': {name: "B", ncpu: 2, pairs: 60, genCalls: &calls},
			}
			var tasks []Task
			for i := range len(order) {
				tasks = append(tasks, simTasks(progs[order[i]], fmt.Sprint(i))...)
			}
			cache := NewTraceCacheCap(1)
			_, rep, err := New(Config{Workers: 2, Cache: cache}).Run(context.Background(), tasks)
			if err != nil {
				t.Fatal(err)
			}
			if rep.CacheMisses != 2 || rep.CacheHits != 2 || calls.Load() != 2 {
				t.Errorf("misses %d hits %d generations %d, want 2/2/2",
					rep.CacheMisses, rep.CacheHits, calls.Load())
			}
		})
	}
}

// Cancelling the run wakes a worker waiting in the dispatcher: Run returns
// the context error promptly and no goroutine outlives it.
func TestDispatchCancelWhileWaiting(t *testing.T) {
	t.Run("cap", func(t *testing.T) {
		// A one-entry cache holds B back while A's long simulation runs,
		// so the second worker waits on the dispatcher.
		var bCalls atomic.Int32
		a := &fakeProgram{name: "A", ncpu: 8, pairs: 20_000}
		b := &fakeProgram{name: "B", ncpu: 2, pairs: 10, genCalls: &bCalls}
		aSim := make(chan struct{})
		var once sync.Once
		o := &simOrder{onSim: func(string) { once.Do(func() { close(aSim) }) }}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		before := runtime.NumGoroutine()
		done := make(chan error, 1)
		go func() {
			eng := New(Config{Workers: 2, Cache: NewTraceCacheCap(1), Progress: o.progress})
			_, _, err := eng.Run(ctx, append(simTasks(a, "a"), simTasks(b, "b")...))
			done <- err
		}()
		waitOrFail(t, aSim, "A's simulation")
		cancel()
		expectCancelled(t, done)
		if n := bCalls.Load(); n != 0 {
			t.Errorf("B generated %d times while the cache was full", n)
		}
		waitForGoroutines(t, before)
	})
	t.Run("generation", func(t *testing.T) {
		// The second worker waits for A's in-flight generation; the gate
		// opens only after the cancel.
		a := newGated("A", 20)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		before := runtime.NumGoroutine()
		done := make(chan error, 1)
		go func() {
			_, _, err := New(Config{Workers: 2}).Run(ctx, simTasks(a, "a0", "a1"))
			done <- err
		}()
		waitOrFail(t, a.entered, "A's generation")
		cancel()
		close(a.release)
		expectCancelled(t, done)
		waitForGoroutines(t, before)
	})
}

func expectCancelled(t *testing.T, done <-chan error) {
	t.Helper()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("engine did not return within 5s of cancellation")
	}
}

// A task blocked on a generation another run has in flight on a shared
// cache is idle: the wait is reported and kept out of busy time.
func TestTraceWaitExcludedFromBusy(t *testing.T) {
	const hold = 200 * time.Millisecond
	a := newGated("A", 10)
	cache := NewTraceCache()
	first := make(chan error, 1)
	go func() {
		_, _, err := New(Config{Workers: 1, Cache: cache}).Run(context.Background(), simTasks(a, "gen"))
		first <- err
	}()
	waitOrFail(t, a.entered, "A's generation")
	time.AfterFunc(hold, func() { close(a.release) })
	_, rep, err := New(Config{Workers: 1, Cache: cache}).Run(context.Background(), simTasks(a, "wait"))
	if err != nil {
		t.Fatal(err)
	}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if rep.CacheHits != 1 || rep.Wait < hold/2 {
		t.Fatalf("hits %d wait %v, want 1 hit and a wait near %v", rep.CacheHits, rep.Wait, hold)
	}
	if rep.Busy >= rep.Wait {
		t.Errorf("busy %v must exclude the %v wait", rep.Busy, rep.Wait)
	}
	if occ := rep.Occupancy(); occ >= 0.5 {
		t.Errorf("occupancy %.2f counts the wait as work", occ)
	}
	// A hit on a trace that is already generated waits for nothing.
	_, rep, err = New(Config{Workers: 1, Cache: cache}).Run(context.Background(), simTasks(a, "ready"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheHits != 1 || rep.Wait != 0 {
		t.Errorf("hit on a ready trace: hits %d wait %v, want 1 and 0", rep.CacheHits, rep.Wait)
	}
}
