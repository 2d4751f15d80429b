package machine

import (
	"fmt"

	"syncsim/internal/cache"
	"syncsim/internal/trace"
)

// This file implements SchedParallel: speculative per-processor run-ahead
// over the wakeup calendar, bit-identical to the serial schedulers. It is
// not a loop of its own but the calendar's phase-B strategy of the one run
// loop (run, in machine.go) with one per-processor hook: sweepLease
// commits, skips or opens leases and otherwise leaves the processor to the
// shared stepCPU, which re-leases one that comes out of its step executing.
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
// that cannot rewind, such as a streamed trace.RingSet): the run loop
// then takes the plain calendar strategy, which is bit-identical by
// construction.
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

// sweepLease handles one dirty processor at its position in the phase-B
// index-order sweep, reporting whether run-ahead owned it: it commits a
// lease that blocked at this cycle, skips a leased processor woken by a
// stale (pre-rollback) wakeup, or starts a new lease. A processor
// ineligible for a lease (blocked states, pending buffer entries, open
// stall windows) is left to the ordinary stepCPU.
func (m *Machine) sweepLease(id int, progress *bool) bool {
	l := &m.par.leases[id]
	if l.active {
		// A stale wakeup (tb != now): the lease re-blocked at a different
		// cycle after a rollback, and the superseded calendar entry
		// survives. The serial machine would find this processor
		// mid-burst and do nothing; so do we.
		if l.tb == m.now {
			m.commitLease(id, progress)
		}
		return true
	}
	if m.leasable(m.cpus[id]) {
		m.advanceLease(id, m.now)
		m.finishAdvance(id, progress)
		return true
	}
	return false
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
	m.stepCPU(id, progress)
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
