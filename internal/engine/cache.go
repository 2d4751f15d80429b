package engine

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"syncsim/internal/lru"
	"syncsim/internal/trace"
	"syncsim/internal/workload"
	"syncsim/internal/workload/addr"
)

// Key addresses one generated trace by the content that determines it:
// the workload's name and its canonicalised generation parameters.
// Generation is deterministic in these, so equal keys mean byte-identical
// traces and the cache never has to hash trace contents.
type Key struct {
	Workload string
	NCPU     int
	Scale    float64
	Seed     int64
}

// KeyFor computes the cache key of a program under the given parameters,
// canonicalising defaults (NCPU 0 → the program's default, Scale 0 → 1)
// so equivalent parameter spellings share one entry.
func KeyFor(prog workload.Program, p workload.Params) Key {
	q := p.WithDefaults(prog.DefaultNCPU())
	return Key{Workload: prog.Name(), NCPU: q.NCPU, Scale: q.Scale, Seed: q.Seed}
}

// CacheInfo describes how one cache lookup was served.
type CacheInfo struct {
	// Hit is true when the trace had already been generated (or was being
	// generated by a concurrent task; the caller waited instead of
	// regenerating).
	Hit bool
	// Generate and Analyze are the phase durations this lookup paid;
	// both are zero on a hit.
	Generate time.Duration
	Analyze  time.Duration
	// Wait is the time this lookup spent blocked on a generation another
	// caller had in flight.
	Wait time.Duration
}

// TraceCache memoises generated benchmark traces and their ideal
// statistics, keyed on (workload, Params). Lookups are single-flight:
// concurrent requests for one key generate the trace exactly once and the
// rest wait. Every lookup returns an independent replay cursor set over
// the shared read-only trace, so callers can simulate concurrently.
//
// A cache built with NewTraceCacheCap is bounded: once the entry count
// would exceed the capacity, the least-recently-used entries are evicted.
// The unbounded variant keeps every trace, which suits one-shot CLI sweeps;
// a long-lived service must cap the cache or its heap grows with every
// distinct request it has ever seen.
type TraceCache struct {
	// mu makes a lookup's get-or-insert atomic; entries has its own lock
	// for the individual operations.
	mu      sync.Mutex
	cap     int // 0 = unbounded
	entries *lru.Cache[Key, *cacheEntry]

	hits, misses, evictions, bypassed atomic.Int64
}

type cacheEntry struct {
	ready chan struct{} // closed once set/ideal/err are final

	set      *trace.Set // canonical; only ever handed out as clones
	ideal    trace.Summary
	err      error
	aborted  bool // fill cut short by the filler's ctx; entry was evicted
	generate time.Duration
	analyze  time.Duration
}

// NewTraceCache returns an empty, unbounded cache.
func NewTraceCache() *TraceCache {
	return NewTraceCacheCap(0)
}

// NewTraceCacheCap returns an empty cache bounded to at most capacity
// entries (LRU eviction). A capacity of zero or less means unbounded.
func NewTraceCacheCap(capacity int) *TraceCache {
	if capacity <= 0 {
		return &TraceCache{entries: lru.New[Key, *cacheEntry](math.MaxInt)}
	}
	return &TraceCache{cap: capacity, entries: lru.New[Key, *cacheEntry](capacity)}
}

// Cap returns the configured capacity; zero means unbounded.
func (c *TraceCache) Cap() int { return c.cap }

// Len returns the number of cached traces (including failed generations,
// whose errors are memoised too — generation is deterministic, so a
// retry would fail identically).
func (c *TraceCache) Len() int { return c.entries.Len() }

// CacheStats is a point-in-time view of a cache's effectiveness.
type CacheStats struct {
	// Len and Cap describe occupancy; Cap is zero for unbounded caches.
	Len, Cap int
	// Hits counts lookups served from a completed or in-flight entry,
	// Misses counts lookups that had to generate, and Evictions counts
	// entries displaced by the LRU bound.
	Hits, Misses, Evictions int64
	// Bypassed counts streaming tasks that deliberately skipped the cache:
	// a streamed trace is consumed as it is generated and cannot be
	// memoised (its sources have no Cloner), so the engine routes such
	// runs around the cache and records them here.
	Bypassed int64
}

// Stats returns the cache's cumulative lookup statistics.
func (c *TraceCache) Stats() CacheStats {
	return CacheStats{
		Len: c.entries.Len(), Cap: c.cap,
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Bypassed:  c.bypassed.Load(),
	}
}

// NoteBypass records one deliberate cache bypass (a streaming run).
func (c *TraceCache) NoteBypass() { c.bypassed.Add(1) }

// Get returns a fresh replay cursor set and the ideal statistics for the
// program under the given parameters, generating and analysing the trace
// on first use. progress, when non-nil, receives a line when a generation
// actually runs. Waiting on a concurrent generation respects ctx.
func (c *TraceCache) Get(ctx context.Context, prog workload.Program, p workload.Params, progress func(format string, args ...any)) (*trace.Set, trace.Summary, CacheInfo, error) {
	key := KeyFor(prog, p)
	var wait time.Duration
	for {
		c.mu.Lock()
		e, ok := c.entries.Get(key)
		if !ok {
			e = &cacheEntry{ready: make(chan struct{})}
			if c.entries.Put(key, e) {
				c.evictions.Add(1)
			}
			c.mu.Unlock()
			c.misses.Add(1)
			c.fill(ctx, e, key, prog, p, progress)
			if e.err != nil {
				return nil, trace.Summary{}, CacheInfo{}, e.err
			}
			clone, err := e.set.Clone()
			if err != nil {
				return nil, trace.Summary{}, CacheInfo{}, err
			}
			info := CacheInfo{Generate: e.generate, Analyze: e.analyze, Wait: wait}
			return clone, e.ideal, info, nil
		}
		c.mu.Unlock()
		c.hits.Add(1)
		select {
		case <-e.ready: // already generated: nothing to wait for
		default:
			waitStart := time.Now()
			select {
			case <-e.ready:
			case <-ctx.Done():
				return nil, trace.Summary{}, CacheInfo{}, ctx.Err()
			}
			wait += time.Since(waitStart)
		}
		if e.aborted {
			// The fill was cut short by the FILLER's context, not ours.
			// Inheriting that error would cancel this lookup spuriously;
			// the entry has been evicted, so retry with our own context —
			// unless it is dead too, in which case report our own error.
			if err := ctx.Err(); err != nil {
				return nil, trace.Summary{}, CacheInfo{}, err
			}
			continue
		}
		if e.err != nil {
			return nil, trace.Summary{}, CacheInfo{}, e.err
		}
		clone, err := e.set.Clone()
		if err != nil {
			return nil, trace.Summary{}, CacheInfo{}, err
		}
		return clone, e.ideal, CacheInfo{Hit: true, Wait: wait}, nil
	}
}

// fill generates and analyses the trace for a freshly created entry and
// publishes the result by closing ready. Cancellation is polled between
// phases; a ctx error is NOT memoised (unlike deterministic generation
// failures) — the entry is evicted and marked aborted so waiters retry
// with their own contexts and a later lookup regenerates.
func (c *TraceCache) fill(ctx context.Context, e *cacheEntry, key Key, prog workload.Program, p workload.Params, progress func(format string, args ...any)) {
	defer close(e.ready)
	// Panic barrier: a panicking generator must still publish the entry
	// (close ready) or every waiter would hang; the panic is memoised as a
	// *PanicError like any other deterministic generation failure.
	defer func() {
		if v := recover(); v != nil {
			e.set, e.err = nil, Recovered("generate "+key.Workload, v)
		}
	}()
	if err := ctx.Err(); err != nil {
		c.evict(key, e)
		e.aborted = true
		e.err = err
		return
	}
	if progress != nil {
		progress("%s: generating (scale %g, %d cpus)", key.Workload, key.Scale, key.NCPU)
	}
	start := time.Now()
	set, err := prog.Generate(p)
	if err != nil {
		e.err = fmt.Errorf("engine: generate %s: %w", prog.Name(), err)
		return
	}
	e.generate = time.Since(start)

	if err := ctx.Err(); err != nil {
		c.evict(key, e)
		e.aborted = true
		e.err = err
		return
	}
	start = time.Now()
	e.ideal = trace.AnalyzeIdeal(set, addr.Shared).Summarize()
	e.analyze = time.Since(start)
	// The analyser consumed the canonical cursors; rewind them so the set
	// is pristine. Clones always start at the beginning regardless, but a
	// rewound canonical keeps Reset-based callers correct too.
	if err := trace.Reset(set); err != nil {
		e.err = fmt.Errorf("engine: %s: %w", prog.Name(), err)
		return
	}
	e.set = set
}

// evict removes a key so a later lookup regenerates. Used when a fill was
// cut short by cancellation: that outcome is circumstantial, not a
// property of the trace, so it must not be memoised. The entry identity is
// checked because an LRU eviction may already have displaced this entry
// and a NEWER fill may occupy the key; that one must not be torn down.
func (c *TraceCache) evict(key Key, e *cacheEntry) {
	c.mu.Lock()
	if cur, ok := c.entries.Get(key); ok && cur == e {
		c.entries.Remove(key)
	}
	c.mu.Unlock()
}
