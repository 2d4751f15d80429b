package machine

import "fmt"

// entryKind is the type of a cache-bus interface buffer entry.
type entryKind uint8

const (
	// entRead fills a line after a read or instruction-fetch miss.
	entRead entryKind = iota
	// entReadOwn fills a line with ownership after a write miss.
	entReadOwn
	// entUpgrade invalidates other copies for a write hit on Shared.
	entUpgrade
	// entWriteBack moves a dirty victim to memory.
	entWriteBack
	// entLockAcquire is a queuing-lock acquire: a full memory round trip
	// to the lock word (the atomic-exchange enqueue of Graunke-Thakkar).
	entLockAcquire
	// entLockRelease is a queuing-lock release: a memory write to the
	// lock word, extended with a cache-to-cache hand-off transfer when a
	// waiter exists.
	entLockRelease
	// entLockNotify is the exact queuing lock's post-release memory
	// write to the next waiter's spin location (the bus transaction the
	// paper's approximation omits).
	entLockNotify
)

var entryKindNames = [...]string{"read", "readown", "upgrade", "writeback", "lockacq", "lockrel", "locknotify"}

func (k entryKind) String() string {
	if int(k) < len(entryKindNames) {
		return entryKindNames[k]
	}
	return fmt.Sprintf("entryKind(%d)", uint8(k))
}

// purpose tells the completion handler what a finished entry unblocks.
type purpose uint8

const (
	// purNormal: a plain trace reference; resume the processor if the
	// entry was blocking.
	purNormal purpose = iota
	// purReplay: re-execute the processor's pending trace event once the
	// entry completes (used when an access merges with an outstanding
	// fill of the same line).
	purReplay
	// purTTSTest: a test&test&set test read of the lock word; evaluate
	// the lock state when the fill arrives.
	purTTSTest
	// purTTSSet: a test&set write of the lock word; resolve the
	// acquisition race when the write is performed.
	purTTSSet
	// purTTSRelease: the lock-word write of a test&test&set release;
	// release the lock when the write is performed.
	purTTSRelease
	// purQEAcquire1: the first of the exact queuing lock's two enqueue
	// memory accesses; reissue the entry for the second round trip.
	purQEAcquire1
	// purQERespin: the exact queuing lock waiter's re-read of its spin
	// location after the releaser's notify write; the lock is granted
	// when the fill arrives.
	purQERespin
)

// entry is one pending access in a processor's cache-bus interface buffer.
type entry struct {
	id       uint64
	kind     entryKind
	purpose  purpose
	line     uint32 // line-aligned address (or the lock word address)
	lockID   uint32 // valid for lock entries and TTS purposes
	peer     int    // entLockNotify: the waiter being notified
	blocking bool   // the processor is stalled until this entry completes
	inFlight bool   // issued to the bus/memory; awaiting completion
}

// buffer is the four-entry cache-bus interface of one processor. All memory
// requests, write-backs, cache-to-cache transfers and coherence actions pass
// through it (paper §2.2). Entries issue in FIFO order; an issued (split)
// entry no longer occupies the issue slot, so a later entry can use the bus
// while an earlier one waits for memory — the lockup-free behaviour weak
// ordering requires.
type buffer struct {
	entries []entry
	depth   int
	removed uint64 // lifetime count of completed entries, for conservation checks

	// wbPending, when non-nil, points at a machine-wide count of buffered
	// write-back entries, kept current across push/remove so the coherence
	// paths can skip their per-processor buffer scans when it is zero.
	wbPending *int
	// occupied, when non-nil, points at a machine-wide count of non-empty
	// buffers, letting the run loop skip bus arbitration when no
	// processor has anything to issue.
	occupied *int
}

func newBuffer(depth int) *buffer {
	return &buffer{entries: make([]entry, 0, depth), depth: depth}
}

// full reports whether no more entries can be accepted.
func (b *buffer) full() bool { return len(b.entries) >= b.depth }

// empty reports whether the buffer holds no entries at all.
func (b *buffer) empty() bool { return len(b.entries) == 0 }

// push appends an entry at the back. It panics when full; callers gate on
// full().
func (b *buffer) push(e entry) {
	if b.full() {
		panic("machine: push on full cache-bus buffer")
	}
	if e.kind == entWriteBack && b.wbPending != nil {
		*b.wbPending++
	}
	if len(b.entries) == 0 && b.occupied != nil {
		*b.occupied++
	}
	b.entries = append(b.entries, e)
}

// pushFront inserts an entry at the issue head — the weak-ordering bypass
// for loads and instruction fetches (§4.1: stalling references may be
// placed at the front of the bus access buffer).
func (b *buffer) pushFront(e entry) {
	if b.full() {
		panic("machine: pushFront on full cache-bus buffer")
	}
	if e.kind == entWriteBack && b.wbPending != nil {
		*b.wbPending++
	}
	if len(b.entries) == 0 && b.occupied != nil {
		*b.occupied++
	}
	b.entries = append(b.entries, entry{})
	copy(b.entries[1:], b.entries)
	b.entries[0] = e
}

// issuable returns the next entry to put on the bus: the first entry not
// already in flight, preserving FIFO issue order. ok is false when nothing
// is ready.
func (b *buffer) issuable() (*entry, bool) {
	for i := range b.entries {
		if !b.entries[i].inFlight {
			return &b.entries[i], true
		}
	}
	return nil, false
}

// find returns the first entry matching pred.
func (b *buffer) find(pred func(*entry) bool) (*entry, bool) {
	for i := range b.entries {
		if pred(&b.entries[i]) {
			return &b.entries[i], true
		}
	}
	return nil, false
}

// remove deletes the entry at the given pointer (which must point into the
// buffer's backing slice).
func (b *buffer) remove(target *entry) {
	for i := range b.entries {
		if &b.entries[i] == target {
			if target.kind == entWriteBack && b.wbPending != nil {
				*b.wbPending--
			}
			b.entries = append(b.entries[:i], b.entries[i+1:]...)
			if len(b.entries) == 0 && b.occupied != nil {
				*b.occupied--
			}
			b.removed++
			return
		}
	}
	panic("machine: remove of entry not in buffer")
}

// byID returns the entry with the given id.
func (b *buffer) byID(id uint64) (*entry, bool) {
	return b.find(func(e *entry) bool { return e.id == id })
}

// pendingFill returns a read/readown entry for the given line, used to
// merge accesses to a line that already has a fill outstanding.
func (b *buffer) pendingFill(line uint32) (*entry, bool) {
	return b.find(func(e *entry) bool {
		return (e.kind == entRead || e.kind == entReadOwn) && e.line == line
	})
}

// pendingWriteBack returns a not-yet-issued write-back of the given line,
// which the coherence mechanism must treat as a dirty copy (§2.2: a dirty
// line in the buffer is visible to cache coherence).
func (b *buffer) pendingWriteBack(line uint32) (*entry, bool) {
	return b.find(func(e *entry) bool {
		return e.kind == entWriteBack && e.line == line && !e.inFlight
	})
}
