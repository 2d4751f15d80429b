package machine

import "math/bits"

// This file implements the wakeup calendar behind two of the phase-B
// strategies of the machine's one run loop (run, in machine.go): the
// default calendar strategy and run-ahead, which layers leases over it
// (parallel.go). Instead of stepping every processor on every visited
// cycle and re-deriving the next event with a full component scan (the
// original polling strategy, kept as SchedPolling for differential
// testing), the calendar tracks exactly which components can act and
// when:
//
//   - a min-heap of candidate visited cycles (bus transaction completions,
//     memory access completions, deferred same-component retries), fed by
//     event registration hooks on the bus and the memory module;
//   - a min-heap of timed per-CPU wakeups (execution bursts, test&set
//     backoff delays);
//   - a dirty set of CPUs whose state was perturbed at the current cycle
//     by a completed bus transaction, a snoop, a lock grant or a barrier
//     release, and which must therefore be stepped this cycle.
//
// Every visited cycle runs the same three phases under every strategy
// (complete transaction + memory tick, step processors, arbitrate), but
// with a calendar phase B only steps dirty or due CPUs (sweepDirty), and
// the next visited cycle is a heap pop instead of an O(P) rescan. Stepping
// a CPU that cannot progress is a semantic no-op, and visiting a cycle at
// which nothing is due never changes state, so the calendar is cycle-exact
// with polling —
// a property pinned by the golden corpus, the differential oracle, and
// TestSchedulerEquivalence.

// timeHeap is a min-heap of candidate visited cycles. Duplicates are
// allowed; the scheduler skips stale entries when advancing the clock.
type timeHeap []uint64

func (h *timeHeap) push(t uint64) {
	*h = append(*h, t)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*h)[parent] <= (*h)[i] {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

func (h *timeHeap) pop() uint64 {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && old[l] < old[small] {
			small = l
		}
		if r < n && old[r] < old[small] {
			small = r
		}
		if small == i {
			break
		}
		old[i], old[small] = old[small], old[i]
		i = small
	}
	return top
}

// cpuWakeup is one timed per-CPU wakeup: step CPU id once the clock
// reaches at.
type cpuWakeup struct {
	at uint64
	id int
}

// cpuHeap is a min-heap of timed CPU wakeups ordered by wakeup time. Due
// entries all drain into the dirty set before a sweep, which visits CPUs
// in index order, so ties need no secondary ordering.
type cpuHeap []cpuWakeup

func (h *cpuHeap) push(w cpuWakeup) {
	*h = append(*h, w)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*h)[parent].at <= (*h)[i].at {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

func (h *cpuHeap) pop() cpuWakeup {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && old[l].at < old[small].at {
			small = l
		}
		if r < n && old[r].at < old[small].at {
			small = r
		}
		if small == i {
			break
		}
		old[i], old[small] = old[small], old[i]
		i = small
	}
	return top
}

// scheduler is the per-run wakeup calendar. It is created under
// SchedCalendar and SchedParallel; under SchedPolling it is nil, every
// hook is guarded by a nil check, and the run loop takes the polling
// strategy.
type scheduler struct {
	times  timeHeap
	wakes  cpuHeap
	dirty  []bool
	ndirty int
	// wakeAt dedups timed wakeups: re-stepping a running CPU must not
	// push a second wakeup for the same busyUntil.
	wakeAt []uint64
	// nearAt/nearMask are the fast path for next-cycle wakeups, by far the
	// most common kind (a hitting reference runs for one cycle; snoop and
	// buffer-slot wakes land at now+1). During cycle t, nearAt is t+1 and
	// nearMask collects the CPUs (< 64) due then as single bit-sets,
	// skipping both heap operations the general path would pay. startCycle
	// drains the mask into the dirty set when the clock arrives.
	nearAt   uint64
	nearMask uint64
	// dirtyMask mirrors dirty for CPUs < 64 so the calendar sweep can walk
	// set bits instead of scanning every processor each visited cycle.
	dirtyMask uint64
}

func newScheduler(ncpu int) *scheduler {
	return &scheduler{
		dirty:  make([]bool, ncpu),
		wakeAt: make([]uint64, ncpu),
	}
}

// pushTime registers a future candidate visited cycle.
func (s *scheduler) pushTime(at uint64) { s.times.push(at) }

// wake schedules a timed wakeup for one CPU, deduplicating repeats at the
// same cycle. Next-cycle wakeups of low-numbered CPUs take the nearMask
// fast path; everything else goes through the heap.
func (s *scheduler) wake(id int, at uint64) {
	if s.wakeAt[id] == at {
		return
	}
	s.wakeAt[id] = at
	if at == s.nearAt && id < 64 {
		s.nearMask |= uint64(1) << uint(id)
		return
	}
	s.wakes.push(cpuWakeup{at: at, id: id})
}

// startCycle begins a visited cycle: wakeups that were scheduled for it
// through the nearMask fast path drain into the dirty set, and the mask is
// re-armed for the following cycle. Must run before the cycle's phases so
// that wakes issued during them (all at now+1) land in the fresh mask.
func (s *scheduler) startCycle(now uint64) {
	if s.nearMask != 0 && s.nearAt <= now {
		for m := s.nearMask; m != 0; m &= m - 1 {
			id := bits.TrailingZeros64(m)
			if s.wakeAt[id] == s.nearAt {
				s.wakeAt[id] = 0
			}
			s.mark(id)
		}
		s.nearMask = 0
	}
	s.nearAt = now + 1
}

// mark adds a CPU to the current cycle's dirty set.
func (s *scheduler) mark(id int) {
	if s.dirty[id] {
		return
	}
	s.dirty[id] = true
	if id < 64 {
		s.dirtyMask |= uint64(1) << uint(id)
	}
	s.ndirty++
}

// unmark removes a CPU from the dirty set (it is about to be stepped).
func (s *scheduler) unmark(id int) {
	if !s.dirty[id] {
		return
	}
	s.dirty[id] = false
	if id < 64 {
		s.dirtyMask &^= uint64(1) << uint(id)
	}
	s.ndirty--
}

// drainDue moves every timed wakeup due at or before now into the dirty
// set.
func (s *scheduler) drainDue(now uint64) {
	for len(s.wakes) > 0 && s.wakes[0].at <= now {
		w := s.wakes.pop()
		if s.wakeAt[w.id] == w.at {
			s.wakeAt[w.id] = 0
		}
		s.mark(w.id)
	}
}

// nextAfter returns the earliest candidate visited cycle strictly after
// now, discarding stale entries. ok is false when the calendar is empty —
// with work still pending that is a deadlock, exactly like the polling
// strategy's failed nextTime scan.
func (s *scheduler) nextAfter(now uint64) (uint64, bool) {
	if s.nearMask != 0 {
		// A pending next-cycle wakeup means now+1 is the answer — no
		// candidate can be earlier. Stale time entries keep until a later
		// call; they are bounded by what was pushed.
		return now + 1, true
	}
	for len(s.times) > 0 && s.times[0] <= now {
		s.times.pop()
	}
	best := uint64(0)
	have := false
	if len(s.times) > 0 {
		best, have = s.times[0], true
	}
	if len(s.wakes) > 0 {
		// A wakeup stamped in the past (a zero-length execution burst)
		// still costs one cycle, as in the polling strategy's clamp.
		at := s.wakes[0].at
		if at <= now {
			at = now + 1
		}
		if !have || at < best {
			best, have = at, true
		}
	}
	return best, have
}
