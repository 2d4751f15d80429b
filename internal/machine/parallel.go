package machine

import (
	"context"
	"fmt"
	"math/bits"

	"syncsim/internal/cache"
	"syncsim/internal/trace"
)

// This file implements SchedParallel: speculative per-processor run-ahead
// over the wakeup calendar, bit-identical to the serial schedulers.
//
// # Why speculation
//
// The machine's work between bus transactions is overwhelmingly local:
// execution bursts and cache hits touch only the owning processor's state.
// In the paper's workloads 88-99% of processor steps are such purely-local
// visits, yet the serial calendar pays the full visited-cycle machinery
// (heap pops, dirty-set bookkeeping, the step state machine) for every one
// of them. A conservative window without rollback does not help: an
// Illinois bus transaction can invalidate any cache line at any cycle, so
// the provable lookahead between global events collapses to a couple of
// cycles under contention. Speculation restores the win: run each
// processor ahead through its local stretch, and repair the rare cases
// where a bus snoop lands inside the stretch.
//
// # The lease discipline
//
// A processor whose next activity is purely local (fetching or executing,
// empty cache-bus buffer, no open stall window) is *leased*: a snapshot of
// its state is taken and it runs ahead — consuming trace events, executing
// bursts, performing cache hits through a speculation journal — until it
// reaches an event that needs the coordinator (a cache miss, a Shared-state
// write, a lock, unlock or barrier, or trace exhaustion) at some future
// cycle tb. The blocking event is deferred, a calendar wakeup is registered
// at tb, and the coordinator continues with other processors.
//
// Every global effect stays on the coordinator, in exact calendar order:
//
//   - Commit: when the clock reaches tb, the lease is committed at the
//     processor's position in the phase-B index-order sweep — the
//     speculative state becomes real, and the deferred event goes through
//     the ordinary serial step machinery at exactly the cycle and sweep
//     position the serial calendar would have processed it.
//   - Snoop: a bus transaction snooping a leased processor's cache checks
//     the journal's cycle stamps. If no speculative probe after the snoop
//     cycle touched the line, the snoop is applied late — provably landing
//     on the same state the serial machine would have seen — and recorded
//     for replay. Otherwise the speculation is invalid: the processor rolls
//     back to its snapshot and deterministically re-executes with every
//     recorded snoop applied at its proper cycle, re-blocking at a new tb.
//   - Nothing else can touch a leased processor: it is never in a blocked
//     state, its buffer is empty, and it holds no transactions, so
//     transaction completions, lock grants and barrier releases never
//     target it.
//
// Leased stretches contain only hits, so they never fill or evict lines:
// residency — and with it the holder index and the snoop fan-out — is
// exactly what the serial machine would have. That is what makes the late
// snoop application and the conflict stamps sound.
//
// # Cost
//
// The speculation runs inline on the coordinator, with no goroutines.
// That is where the scheduler's speedup comes from: a leased visit costs
// an event decode and a journal probe instead of the full visited-cycle
// machinery. The hot path allocates nothing in steady state: journals
// and stamp arrays are sized at construction and snoop-replay queues are
// resliced on reuse.

// maxLeaseSteps caps the visits of a single lease so a pathological
// all-hits trace cannot run ahead unboundedly between heartbeat polls. A
// capped lease simply stops at a visit boundary; the commit continues the
// trace serially and immediately re-leases.
const maxLeaseSteps = 1 << 15

// queuedSnoop records one bus snoop applied to a leased processor's cache
// while it was sped ahead, for in-order re-application on rollback.
type queuedSnoop struct {
	line uint32
	at   uint64
	op   cache.SnoopOp
}

// lease is one processor's speculative run-ahead window.
type lease struct {
	active bool
	start  uint64 // cycle the speculation started from
	tb     uint64 // cycle at which the speculation blocked
	steps  uint64 // completed visits, credited to m.steps at commit
	snap   cpu    // processor snapshot at lease start (pointers shared)
	mark   trace.Mark
	snoops []queuedSnoop
}

// parExec is the parallel executor's state.
type parExec struct {
	leases   []lease
	journals []*cache.Journal
	marks    []trace.Marker
}

// newParExec builds the speculative executor's state, or returns nil when
// the configuration is outside its envelope (no holder index, or a source
// that cannot rewind): the machine then runs the ordinary calendar loop,
// which is bit-identical by construction.
func newParExec(m *Machine) *parExec {
	if m.holders == nil {
		return nil
	}
	p := &parExec{
		leases:   make([]lease, len(m.cpus)),
		journals: make([]*cache.Journal, len(m.cpus)),
		marks:    make([]trace.Marker, len(m.cpus)),
	}
	for i, c := range m.cpus {
		mk, ok := c.src.(trace.Marker)
		if !ok {
			return nil
		}
		p.marks[i] = mk
		p.journals[i] = cache.NewJournal(c.cache)
	}
	return p
}

// leasable reports whether a processor's next activity is purely local: it
// is fetching or executing, its cache-bus buffer is empty, and no stall
// window is open. Such a processor can run ahead until it needs the bus.
func (m *Machine) leasable(c *cpu) bool {
	return (c.state == stFetch || c.state == stRun) &&
		c.buf.empty() && c.stallCause == causeNone
}

// runParallel is the SchedParallel main loop: the calendar loop of
// runCalendar with the lease discipline layered into phase B. See the file
// comment for the design; see runCalendar for the phase structure.
func (m *Machine) runParallel(ctx context.Context) error {
	s := m.sched
	window := m.progressWindow()
	checkEvery := m.cancelEvery()
	idleIters := uint64(0)
	sinceCheck := uint64(0)
	ready := m.ready // hoisted: a method value allocates per evaluation

	// Every processor starts in stFetch and must consume its first trace
	// events at cycle 0.
	for id := range m.cpus {
		s.mark(id)
	}

	for {
		if m.allDone() {
			break
		}
		if sinceCheck++; sinceCheck >= checkEvery {
			sinceCheck = 0
			if m.heartbeat != nil {
				m.heartbeat(m.iters)
			}
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("machine: %s cancelled at cycle %d: %w", m.name, m.now, err)
			}
		}
		if m.cfg.MaxCycles > 0 && m.now >= m.cfg.MaxCycles {
			return m.maxCyclesErr()
		}
		m.iters++
		progress := false
		s.startCycle(m.now)

		// Phase A: complete the bus transaction ending now; advance the
		// memory pipeline. Neither can target a leased processor (no
		// buffered entries, no blocked states).
		if m.txn.active && m.now >= m.txn.at {
			t := m.txn
			m.completeTxn()
			if m.checker != nil {
				if err := m.checker.afterTxn(t); err != nil {
					return err
				}
			}
			progress = true
		}
		m.mem.Tick(m.now)

		// Phase B: the index-order sweep of runCalendar, with three new
		// cases per dirty processor — commit a lease that blocked at this
		// cycle, skip a leased processor woken by a stale (pre-rollback)
		// wakeup, or start a new lease. SchedParallel requires the holder
		// index, so NCPU <= 64 and the dirty mask covers every processor.
		s.drainDue(m.now)
		if s.ndirty > 0 {
			for cursor := 0; cursor < 64; {
				w := s.dirtyMask >> uint(cursor)
				if w == 0 {
					break
				}
				id := cursor + bits.TrailingZeros64(w)
				cursor = id + 1
				s.unmark(id)
				m.sweepCPU(id, &progress)
			}
			if s.ndirty > 0 {
				s.pushTime(m.now + 1)
			}
		}

		// Phase C: arbitration, exactly as in runCalendar.
		if m.occupiedBufs != 0 || m.mem.HasResponse() {
			if granted, ok := m.bus.Arbitrate(m.now, ready); ok {
				m.grant(granted)
				progress = true
			}
		}

		if progress {
			idleIters = 0
		} else {
			idleIters++
			if idleIters > window {
				return fmt.Errorf("machine: %s made no progress for %d iterations at cycle %d (deadlock?): %s",
					m.name, idleIters, m.now, m.stateDump())
			}
		}

		next, ok := s.nextAfter(m.now)
		if !ok {
			if m.allDone() {
				break
			}
			return fmt.Errorf("machine: %s deadlocked at cycle %d: %s", m.name, m.now, m.stateDump())
		}
		m.now = m.clampToMaxCycles(next)
	}
	return nil
}

// sweepCPU handles one dirty processor at its position in the phase-B
// index-order sweep.
func (m *Machine) sweepCPU(id int, progress *bool) {
	l := &m.par.leases[id]
	if l.active {
		if l.tb != m.now {
			// A stale wakeup: the lease re-blocked at a different cycle
			// after a rollback, and the superseded calendar entry
			// survives. The serial machine would find this processor
			// mid-burst and do nothing; so do we.
			return
		}
		m.commitLease(id, progress)
		return
	}
	c := m.cpus[id]
	if m.leasable(c) {
		m.advanceLease(id, m.now)
		m.finishAdvance(id, progress)
		return
	}
	// Ineligible (blocked states, pending buffer entries, open stall
	// windows): the ordinary serial step, exactly as in runCalendar.
	m.serialStep(id, progress)
}

// serialStep is runCalendar's per-processor sweep body: step, detect
// progress, and either re-lease (a processor that entered an execution
// burst speculates through it instead of sleeping) or register the timed
// wakeup the serial calendar would.
func (m *Machine) serialStep(id int, progress *bool) {
	c := m.cpus[id]
	before := c.state
	beforeBusy := c.busyUntil
	m.steps++
	m.step(c, m.now)
	if c.state != before || c.busyUntil != beforeBusy {
		*progress = true
	}
	if m.leasable(c) {
		// The step left the processor executing with nothing global
		// pending (step returns in stRun only with busyUntil > now):
		// speculate from here rather than waking at busyUntil. The
		// advance starts processing at busyUntil, so the covered visits
		// are exactly the ones the calendar would have woken it for.
		m.advanceLease(id, m.now)
		m.finishAdvance(id, progress)
		return
	}
	switch c.state {
	case stRun, stTTSBackoff:
		m.sched.wake(id, c.busyUntil)
	}
}

// advanceLease opens a lease on processor id and speculatively runs it
// from cycle start until it blocks. Pure per-processor work: it touches
// only the processor's own state, cache and journal, never the shared
// machine.
func (m *Machine) advanceLease(id int, start uint64) {
	p := m.par
	c := m.cpus[id]
	l := &p.leases[id]
	l.active = true
	l.start = start
	l.steps = 0
	l.snap = *c
	l.mark = p.marks[id].Mark()
	l.snoops = l.snoops[:0]
	p.journals[id].Begin()
	if rest := m.runAhead(c, l, p.journals[id], start, 0); rest != 0 {
		panic(fmt.Sprintf("machine: cpu %d advance left %d snoops unapplied", id, rest))
	}
}

// runAhead is the speculation loop, shared by the initial advance (empty
// snoop queue) and the rollback replay (which re-applies every recorded
// snoop at its proper cycle). It returns the number of queued snoops left
// unapplied — always zero, because recorded snoops happen at or before the
// coordinator's clock and a replay provably re-blocks strictly after it.
func (m *Machine) runAhead(c *cpu, l *lease, j *cache.Journal, start uint64, si int) int {
	t := start
	if c.state == stRun && c.busyUntil > t {
		t = c.busyUntil
	}
	c.state = stFetch
	for {
		// Remote snoops observed before this processing cycle apply
		// first: the coordinator's phase C at cycle g precedes phase B
		// work at any t > g. Probes at exactly g precede the snoop at g.
		for si < len(l.snoops) && l.snoops[si].at < t {
			j.Snoop(l.snoops[si].line, l.snoops[si].op)
			si++
		}
		if !m.visitAhead(c, j, t) {
			l.tb = t
			return len(l.snoops) - si
		}
		l.steps++
		if l.steps >= maxLeaseSteps {
			// Cap reached: stop at the next visit boundary with nothing
			// deferred; the commit's serial step resumes the trace there.
			nt := c.busyUntil
			if nt <= t {
				nt = t + 1
			}
			l.tb = nt
			return len(l.snoops) - si
		}
		// The next visit: at the burst's end, or the following cycle for
		// a zero-length burst — the serial calendar's wake clamp.
		nt := c.busyUntil
		if nt <= t {
			nt = t + 1
		}
		t = nt
	}
}

// visitAhead consumes one speculative visit at cycle t: events are
// processed until the processor enters an execution burst (true) or needs
// the coordinator (false — the blocking event is deferred for the commit
// step; trace exhaustion defers nothing, Next being idempotent there).
// This mirrors exactly what one serial step call does to a leasable
// processor: hits are free and consume further events at the same cycle,
// a burst ends the visit, and everything else blocks.
func (m *Machine) visitAhead(c *cpu, j *cache.Journal, t uint64) bool {
	for {
		ev, ok := c.nextEvent()
		if !ok {
			return false
		}
		switch ev.Kind {
		case trace.KindExec:
			c.workCycles += uint64(ev.Arg)
			c.busyUntil = t + uint64(ev.Arg)
			return true
		case trace.KindIFetch, trace.KindRead, trace.KindWrite:
			if ev.Arg > 0 {
				// Fused form: execute the preceding cycles, then replay
				// the bare reference — as processEvent does.
				c.workCycles += uint64(ev.Arg)
				c.busyUntil = t + uint64(ev.Arg)
				ref := ev
				ref.Arg = 0
				c.deferEvent(ref)
				return true
			}
			if j.ProbeFast(ev.Addr, ev.Kind == trace.KindWrite, t) {
				c.refs++
				continue // hit: free, keep consuming at this cycle
			}
			// Miss or Shared-state write: needs the bus.
			c.deferEvent(ev)
			return false
		default:
			// Lock, unlock, barrier, end-of-trace: global operations.
			c.deferEvent(ev)
			return false
		}
	}
}

// finishAdvance registers a freshly-advanced lease with the calendar, or
// commits it immediately when the speculation could not get past the
// current cycle.
func (m *Machine) finishAdvance(id int, progress *bool) {
	l := &m.par.leases[id]
	if l.tb == m.now {
		m.commitLease(id, progress)
		return
	}
	m.sched.wake(id, l.tb)
	*progress = true
}

// commitLease makes a lease's speculative state real at the processor's
// sweep position and runs the deferred blocking event through the
// ordinary serial machinery — at exactly the cycle, and the position in
// the in-order sweep, at which the serial calendar would have processed
// it. The step may release a barrier, touch the lock manager, or push bus
// work; all of that happens in serial order. A processor that comes out
// of the step executing is immediately re-leased.
func (m *Machine) commitLease(id int, progress *bool) {
	p := m.par
	l := &p.leases[id]
	m.steps += l.steps
	p.journals[id].Commit()
	l.active = false
	if l.steps > 0 {
		*progress = true
	}
	m.serialStep(id, progress)
}

// snoopCache applies one bus snoop to processor j's cache, routing through
// the speculation machinery when j is leased.
func (m *Machine) snoopCache(j int, line uint32, op cache.SnoopOp) cache.SnoopResult {
	if m.par != nil && m.par.leases[j].active {
		return m.snoopLeased(j, line, op)
	}
	return m.cpus[j].cache.Snoop(line, op)
}

// snoopLeased applies a bus snoop to a leased processor. The returned
// HadCopy/Supplied are serial-exact: speculation never changes residency,
// so the line is present now iff the serial machine would have had it at
// this cycle. (WasDirty may reflect a speculative E→M and is not used by
// the machine.) If the snoop conflicts with the speculation — a probe
// after this cycle touched the line — the lease rolls back and replays
// with the full snoop history, re-blocking strictly after the current
// cycle.
func (m *Machine) snoopLeased(id int, line uint32, op cache.SnoopOp) cache.SnoopResult {
	p := m.par
	l := &p.leases[id]
	res, conflict := p.journals[id].SnoopConflicts(line, op, m.now)
	if res.HadCopy {
		// One snoop per processor per cycle (a single bus grant per
		// cycle), so the queue is strictly increasing in cycle.
		l.snoops = append(l.snoops, queuedSnoop{line: line, at: m.now, op: op})
	}
	if conflict {
		m.rollbackLease(id)
		// Re-register at the new block cycle. The superseded calendar
		// entry fires a stale wakeup that the sweep skips.
		m.sched.wake(id, l.tb)
	}
	return res
}

// rollbackLease rewinds a leased processor to its lease snapshot — the
// processor state, the trace cursor, the cache lines (with residency
// re-announced where a speculatively-applied snoop had invalidated a
// line), the LRU clock and the statistics — and deterministically
// re-executes the speculation with every recorded snoop applied at its
// proper cycle. The replay reproduces the serial machine's execution
// exactly: it re-blocks strictly after the coordinator's clock, because
// the pre-rollback lease was serial-correct through the current cycle.
func (m *Machine) rollbackLease(id int) {
	p := m.par
	c := m.cpus[id]
	l := &p.leases[id]
	*c = l.snap // src/cache/buf pointers are shared; scalars restore
	p.marks[id].Seek(l.mark)
	p.journals[id].Rollback()
	p.journals[id].Begin()
	l.steps = 0
	if rest := m.runAhead(c, l, p.journals[id], l.start, 0); rest != 0 {
		panic(fmt.Sprintf("machine: cpu %d replay left %d snoops unapplied", id, rest))
	}
}
