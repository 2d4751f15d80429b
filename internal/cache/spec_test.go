package cache

import "testing"

// specCache builds a small cache pre-filled with one line per listed
// (addr, state) pair, for journal tests. The tiny geometry (1 KB, 2-way,
// 16-byte lines) keeps set collisions easy to construct.
func specCache(t *testing.T, fills map[uint32]State) *Cache {
	t.Helper()
	c := New(Config{Size: 1024, LineSize: 16, Assoc: 2})
	for addr, st := range fills {
		if _, evicted := c.Fill(addr, st); evicted {
			t.Fatalf("setup Fill(%#x) evicted", addr)
		}
	}
	return c
}

// TestJournalProbeSemantics pins ProbeFast through a journal against the
// plain cache's semantics: hits perform statistics, LRU touch and the
// silent Illinois E→M; misses and Shared-state writes change nothing.
func TestJournalProbeSemantics(t *testing.T) {
	c := specCache(t, map[uint32]State{
		0x100: Exclusive,
		0x200: Shared,
	})
	j := NewJournal(c)
	j.Begin()

	if j.ProbeFast(0x300, false, 5) {
		t.Fatal("miss reported as hit")
	}
	if j.ProbeFast(0x200, true, 5) {
		t.Fatal("Shared-state write must need an upgrade, not hit")
	}
	if c.stats.WriteHits != 0 || c.stats.ReadMisses != 0 {
		t.Fatalf("failed probes changed stats: %+v", c.stats)
	}
	if !j.ProbeFast(0x200, false, 6) {
		t.Fatal("Shared read should hit")
	}
	if !j.ProbeFast(0x100, true, 7) {
		t.Fatal("Exclusive write should hit")
	}
	if got := c.find(0x100); got == nil || got.state != Modified {
		t.Fatalf("written Exclusive line = %v, want Modified", got)
	}
	if c.stats.ReadHits != 1 || c.stats.WriteHits != 1 {
		t.Fatalf("stats = %+v, want 1 read hit + 1 write hit", c.stats)
	}
	j.Commit()
	// Committed state survives: the write's E→M is permanent.
	if got := c.find(0x100); got == nil || got.state != Modified {
		t.Fatalf("post-commit line = %v, want Modified", got)
	}
}

// TestJournalConflicts pins the stamp rules: a read snoop conflicts only
// with a later speculative write; an invalidating snoop conflicts with any
// later speculative probe; probes at exactly the snoop cycle never
// conflict (processor work precedes the bus grant within a cycle).
func TestJournalConflicts(t *testing.T) {
	c := specCache(t, map[uint32]State{
		0x100: Modified,
		0x200: Exclusive,
	})
	j := NewJournal(c)
	j.Begin()
	if !j.ProbeFast(0x100, false, 10) {
		t.Fatal("read should hit")
	}
	if !j.ProbeFast(0x200, true, 12) {
		t.Fatal("write should hit")
	}
	conflicts := func(addr uint32, op SnoopOp, g uint64) bool {
		idx := c.findIndex(addr)
		return idx >= 0 && j.conflicts(idx, op, g)
	}

	if conflicts(0x100, SnoopRead, 5) {
		t.Fatal("read snoop vs later read must not conflict")
	}
	if !conflicts(0x100, SnoopInvalidate, 5) {
		t.Fatal("invalidation vs later read must conflict")
	}
	if conflicts(0x100, SnoopInvalidate, 10) {
		t.Fatal("probe at exactly the snoop cycle must not conflict")
	}
	if !conflicts(0x200, SnoopRead, 5) {
		t.Fatal("read snoop vs later write must conflict")
	}
	if conflicts(0x200, SnoopRead, 12) {
		t.Fatal("write at exactly the snoop cycle must not conflict")
	}
	if conflicts(0x300, SnoopReadOwn, 0) {
		t.Fatal("absent line cannot conflict")
	}
	// A line the window never touched cannot conflict even though it was
	// stamped in an earlier window.
	j.Commit()
	j.Begin()
	if conflicts(0x100, SnoopInvalidate, 0) {
		t.Fatal("stale stamps from a committed window must not conflict")
	}
}

// TestJournalSnoopConflictsMatchesSnoop pins that the fused
// SnoopConflicts applies exactly the transition Cache.Snoop would, with
// the same SnoopResult, while answering the conflict question.
func TestJournalSnoopConflictsMatchesSnoop(t *testing.T) {
	ops := []SnoopOp{SnoopRead, SnoopReadOwn, SnoopInvalidate}
	states := []State{Shared, Exclusive, Modified}
	for _, op := range ops {
		for _, st := range states {
			plain := specCache(t, map[uint32]State{0x100: st})
			want := plain.Snoop(0x100, op)

			c := specCache(t, map[uint32]State{0x100: st})
			j := NewJournal(c)
			j.Begin()
			got, conflict := j.SnoopConflicts(0x100, op, 50)
			if got != want {
				t.Fatalf("op %v on %v: SnoopConflicts = %+v, Snoop = %+v", op, st, got, want)
			}
			if conflict {
				t.Fatalf("op %v on %v: untouched line reported a conflict", op, st)
			}
			if gotLn, wantLn := c.find(0x100), plain.find(0x100); (gotLn == nil) != (wantLn == nil) ||
				(gotLn != nil && gotLn.state != wantLn.state) {
				t.Fatalf("op %v on %v: post-snoop states diverge", op, st)
			}
			if c.stats != plain.stats {
				t.Fatalf("op %v on %v: stats %+v, want %+v", op, st, c.stats, plain.stats)
			}
		}
	}
	// And the conflict flag itself: a probe after the snoop cycle flips it.
	c := specCache(t, map[uint32]State{0x100: Exclusive})
	j := NewJournal(c)
	j.Begin()
	j.ProbeFast(0x100, false, 60)
	if _, conflict := j.SnoopConflicts(0x100, SnoopInvalidate, 50); !conflict {
		t.Fatal("invalidation under a later probe must conflict")
	}
	if _, conflict := j.SnoopConflicts(0x100, SnoopRead, 50); conflict {
		t.Fatal("snoop of a now-absent line must not conflict")
	}
}

// TestJournalRollback pins full window restoration: line states, LRU
// clock and statistics return to their Begin values, including lines a
// speculatively-applied snoop had invalidated.
func TestJournalRollback(t *testing.T) {
	c := specCache(t, map[uint32]State{
		0x100: Exclusive,
		0x200: Modified,
		0x300: Shared,
	})
	preStats := c.stats
	preClock := c.clock
	j := NewJournal(c)
	j.Begin()

	j.ProbeFast(0x100, true, 10) // E→M
	j.ProbeFast(0x300, false, 11)
	j.Snoop(0x200, SnoopReadOwn)           // kills the Modified line
	j.SnoopConflicts(0x300, SnoopRead, 20) // demotes... already Shared
	j.Rollback()

	for addr, want := range map[uint32]State{0x100: Exclusive, 0x200: Modified, 0x300: Shared} {
		ln := c.find(addr)
		if ln == nil || ln.state != want {
			t.Fatalf("rolled-back line %#x = %v, want %v", addr, ln, want)
		}
	}
	if c.stats != preStats {
		t.Fatalf("rolled-back stats = %+v, want %+v", c.stats, preStats)
	}
	if c.clock != preClock {
		t.Fatalf("rolled-back clock = %d, want %d", c.clock, preClock)
	}
}

// TestJournalRollbackResidencyHook pins the residency re-announcement: a
// speculatively-invalidated line fires onResident(false) at the snoop and
// onResident(true) again at rollback, so an external holder index tracking
// the cache stays exact.
func TestJournalRollbackResidencyHook(t *testing.T) {
	c := specCache(t, map[uint32]State{0x100: Modified})
	resident := map[uint32]bool{0x100: true}
	c.Notify(func(line uint32, r bool) { resident[line] = r })

	j := NewJournal(c)
	j.Begin()
	j.ProbeFast(0x100, false, 5)
	if _, conflict := j.SnoopConflicts(0x100, SnoopInvalidate, 30); conflict {
		t.Fatal("snoop after the probe window must not conflict")
	}
	if resident[0x100] {
		t.Fatal("speculative invalidation did not fire onResident(false)")
	}
	j.Rollback()
	if !resident[0x100] {
		t.Fatal("rollback did not re-announce residency")
	}
	if ln := c.find(0x100); ln == nil || ln.state != Modified {
		t.Fatalf("rolled-back line = %v, want Modified", ln)
	}
}

// TestJournalProbeMemo drives the self-validating probe memo through its
// demotion cases: repeated same-line probes are served by the memo, and a
// snoop that invalidates the memoized line — or a fill that moves it to
// the other way — must not let a stale memo produce a phantom hit.
func TestJournalProbeMemo(t *testing.T) {
	c := specCache(t, map[uint32]State{0x100: Exclusive})
	j := NewJournal(c)
	j.Begin()
	for cyc := uint64(1); cyc <= 4; cyc++ {
		if !j.ProbeFast(0x104, false, cyc) { // same line as 0x100
			t.Fatalf("probe %d missed", cyc)
		}
	}
	// Invalidate the memoized line; the next probe must see the miss.
	j.Snoop(0x100, SnoopReadOwn)
	if j.ProbeFast(0x100, false, 5) {
		t.Fatal("stale memo served a hit on an invalidated line")
	}
	j.Rollback() // restores the line

	// Move the line to the other way of its set: fill it again after an
	// eviction cycle so the memoized index can go stale without the line
	// leaving the cache. Geometry: 1 KB / 16 B / 2-way = 32 sets, so
	// addresses 512 bytes apart share a set.
	j.Begin()
	if !j.ProbeFast(0x100, false, 1) {
		t.Fatal("restored line should hit")
	}
	j.Commit()
	c.Fill(0x100+512, Shared)  // second way of the set
	c.Fill(0x100+1024, Shared) // evicts LRU; set now {0x100+512, 0x100+1024}... or {0x100,...}
	j.Begin()
	// Whatever the replacement chose, ProbeFast must agree with findIndex.
	want := c.findIndex(0x100) >= 0
	if got := j.ProbeFast(0x100, false, 2); got != want {
		t.Fatalf("memoized probe = %v, findIndex says %v", got, want)
	}
	j.Commit()
}

// TestJournalWindowIsolation pins that stamps do not leak across windows:
// a touch in one window must not make a later window's snoop conflict,
// and rollback must only restore lines touched in its own window.
func TestJournalWindowIsolation(t *testing.T) {
	c := specCache(t, map[uint32]State{0x100: Exclusive, 0x200: Exclusive})
	j := NewJournal(c)

	j.Begin()
	j.ProbeFast(0x100, true, 10)
	j.Commit()

	j.Begin()
	j.ProbeFast(0x200, false, 20)
	j.Rollback()

	// The first window's E→M commit must survive the second's rollback.
	if ln := c.find(0x100); ln == nil || ln.state != Modified {
		t.Fatalf("line 0x100 = %v, want Modified from the committed window", ln)
	}
}
