package engine

import (
	"context"
	"slices"
	"sync"

	"syncsim/internal/trace"
)

// dispatcher hands an engine run's tasks to its workers. It picks, in
// order:
//
//  1. the first task in task order whose trace no worker has claimed yet
//     (or a stream task, which has no trace), so generations start early
//     and run in parallel;
//  2. otherwise the task whose trace is ready with the most trace events,
//     ties broken by task index, so the longest simulations start first
//     and the short ones fill in around them;
//  3. otherwise nothing: the worker waits for a trace to become ready, a
//     trace to finish, or the run to end.
//
// A worker therefore never blocks inside the trace cache on a generation
// another worker of the same run has in flight while other work exists.
//
// On a bounded cache the number of live traces — claimed, with tasks not
// yet finished — never exceeds the cache's capacity, so the LRU cannot
// evict a trace whose remaining tasks still need it: the run regenerates
// nothing that task-order dispatch would not have regenerated.
type dispatcher struct {
	mu sync.Mutex
	// changed is closed and replaced on every state change; a waiting
	// worker selects on it and on the run's context.
	changed chan struct{}
	tasks   []Task
	keys    []Key               // per task; unused for stream tasks
	traces  map[Key]*traceState // per distinct key
	pending []int               // undispatched task indices, in task order
	live    int                 // claimed traces with unfinished tasks
	cap     int                 // bound on live; 0 = unbounded
}

// traceState tracks one distinct trace of the run.
type traceState struct {
	claimed bool // a task for it has been dispatched
	ready   bool // that task's cache lookup returned
	events  int  // trace length, once ready
	left    int  // tasks not yet finished
}

func newDispatcher(tasks []Task, capacity int) *dispatcher {
	d := &dispatcher{
		changed: make(chan struct{}),
		tasks:   tasks,
		keys:    make([]Key, len(tasks)),
		traces:  map[Key]*traceState{},
		pending: make([]int, len(tasks)),
		cap:     capacity,
	}
	for i := range tasks {
		d.pending[i] = i
		if tasks[i].Stream {
			continue
		}
		k := KeyFor(tasks[i].Program, tasks[i].Params)
		d.keys[i] = k
		ts := d.traces[k]
		if ts == nil {
			ts = &traceState{}
			d.traces[k] = ts
		}
		ts.left++
	}
	return d
}

// signal wakes every waiting worker. Callers hold mu.
func (d *dispatcher) signal() {
	close(d.changed)
	d.changed = make(chan struct{})
}

// next blocks until a task can run and returns its index, or returns
// false once every task has been dispatched or ctx is done.
func (d *dispatcher) next(ctx context.Context) (int, bool) {
	for {
		d.mu.Lock()
		if len(d.pending) == 0 || ctx.Err() != nil {
			d.mu.Unlock()
			return 0, false
		}
		if j := d.pick(); j >= 0 {
			i := d.pending[j]
			d.pending = slices.Delete(d.pending, j, j+1)
			if ts := d.traces[d.keys[i]]; !d.tasks[i].Stream && !ts.claimed {
				ts.claimed = true
				d.live++
			}
			if len(d.pending) == 0 {
				d.signal() // waiting workers can exit
			}
			d.mu.Unlock()
			return i, true
		}
		changed := d.changed
		d.mu.Unlock()
		select {
		case <-changed:
		case <-ctx.Done():
			return 0, false
		}
	}
}

// pick returns the position in pending of the task to run next, or -1.
// Callers hold mu.
func (d *dispatcher) pick() int {
	best, bestEvents := -1, 0
	for j, i := range d.pending {
		if d.tasks[i].Stream {
			return j
		}
		ts := d.traces[d.keys[i]]
		switch {
		case !ts.claimed:
			if d.cap == 0 || d.live < d.cap {
				return j
			}
		case ts.ready:
			if best < 0 || ts.events > bestEvents {
				best, bestEvents = j, ts.events
			}
		}
	}
	return best
}

// ready records that task i's cache lookup returned its trace.
func (d *dispatcher) ready(i int, set *trace.Set) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if ts := d.traces[d.keys[i]]; !ts.ready {
		ts.ready = true
		ts.events, _ = set.Events()
		d.signal()
	}
}

// finish records that task i completed.
func (d *dispatcher) finish(i int) {
	if d.tasks[i].Stream {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	ts := d.traces[d.keys[i]]
	ts.left--
	if ts.left == 0 {
		d.live--
		d.signal()
	}
}
