// Package cache implements the per-processor cache modelled in the paper:
// a set-associative, write-back, write-allocate cache with LRU replacement
// whose lines carry the states of the Illinois coherence protocol
// (Modified / Exclusive / Shared / Invalid with cache-to-cache supply).
//
// The cache itself is a passive, deterministic structure: Probe reports what
// bus work an access needs, Fill/Upgrade install the outcome of that bus
// work, and Snoop applies bus transactions observed from other processors.
// The machine package orchestrates the timing; this package owns only the
// state.
package cache

import "fmt"

// State is the Illinois-protocol state of a cache line.
type State uint8

const (
	// Invalid: the line holds no valid data.
	Invalid State = iota
	// Shared: valid, clean, possibly present in other caches.
	Shared
	// Exclusive: valid, clean, guaranteed absent from all other caches
	// (the Illinois "valid-exclusive" state); can be written without a
	// bus transaction.
	Exclusive
	// Modified: valid, dirty, guaranteed absent from all other caches.
	Modified
)

var stateNames = [...]string{"I", "S", "E", "M"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// BusNeed describes the bus transaction an access requires before it can
// complete in the cache.
type BusNeed uint8

const (
	// NeedNone: the access hits and completes with no bus work.
	NeedNone BusNeed = iota
	// NeedRead: read miss; issue a bus read. The line is installed
	// Exclusive if memory supplies it, Shared if another cache does.
	NeedRead
	// NeedReadOwn: write miss; issue a bus read-for-ownership which both
	// fetches the line and invalidates all other copies. The line is
	// installed Modified.
	NeedReadOwn
	// NeedUpgrade: write hit on a Shared line; issue an invalidation so
	// the line can move to Modified. No data transfer is needed.
	NeedUpgrade
)

var needNames = [...]string{"none", "read", "readown", "upgrade"}

func (n BusNeed) String() string {
	if int(n) < len(needNames) {
		return needNames[n]
	}
	return fmt.Sprintf("BusNeed(%d)", uint8(n))
}

// Config describes the cache geometry. The paper's configuration is a
// 64 KB, 2-way set-associative cache with 16-byte lines.
type Config struct {
	Size     int // total capacity in bytes
	LineSize int // bytes per line; must be a power of two
	Assoc    int // ways per set
}

// DefaultConfig returns the geometry simulated in the paper (§2.2).
func DefaultConfig() Config {
	return Config{Size: 64 * 1024, LineSize: 16, Assoc: 2}
}

// Validate checks the geometry for consistency.
func (c Config) Validate() error {
	if c.Size <= 0 || c.LineSize <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache: line size %d is not a power of two", c.LineSize)
	}
	lines := c.Size / c.LineSize
	if lines*c.LineSize != c.Size {
		return fmt.Errorf("cache: size %d is not a multiple of line size %d", c.Size, c.LineSize)
	}
	sets := lines / c.Assoc
	if sets*c.Assoc != lines {
		return fmt.Errorf("cache: %d lines do not divide into %d ways", lines, c.Assoc)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d is not a power of two", sets)
	}
	return nil
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.Size / c.LineSize / c.Assoc }

// LineAddr returns the line-aligned address containing addr.
func (c Config) LineAddr(addr uint32) uint32 {
	return addr &^ uint32(c.LineSize-1)
}

type line struct {
	tag   uint32
	state State
	used  uint64 // LRU timestamp
}

// Stats counts cache events. Hits and misses are classified by access type.
type Stats struct {
	ReadHits    uint64
	ReadMisses  uint64
	WriteHits   uint64 // includes Shared-state hits that need an upgrade
	WriteMisses uint64
	Upgrades    uint64 // write hits on Shared lines (coherence misses)
	WriteBacks  uint64 // dirty victims evicted
	SnoopHits   uint64 // snoops that found a copy here
	SnoopSupply uint64 // snoops answered with a cache-to-cache transfer
	Invalidated uint64 // lines killed by remote writes
}

// ReadHitRatio returns read hits over all reads, or 1 if there were none.
func (s *Stats) ReadHitRatio() float64 {
	total := s.ReadHits + s.ReadMisses
	if total == 0 {
		return 1
	}
	return float64(s.ReadHits) / float64(total)
}

// WriteHitRatio returns write hits over all writes, or 1 if there were none.
// A write hit on a Shared line counts as a hit, as in the paper's Table 7
// (the data is present; only ownership is missing).
func (s *Stats) WriteHitRatio() float64 {
	total := s.WriteHits + s.WriteMisses
	if total == 0 {
		return 1
	}
	return float64(s.WriteHits) / float64(total)
}

// Cache is one processor's cache. It is not safe for concurrent use; the
// simulator is single-threaded per machine.
type Cache struct {
	cfg        Config
	lines      []line // sets × assoc, flattened
	setMask    uint32
	lineShift  uint
	tagShift   uint // lineShift + log2(sets), precomputed: tag() is hot
	assoc      int
	clock      uint64 // LRU timestamp source
	stats      Stats
	onResident func(lineAddr uint32, resident bool)
}

// New builds a cache with the given geometry. It panics if the geometry is
// invalid; use Config.Validate to check configurations from user input.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	c := &Cache{
		cfg:     cfg,
		lines:   make([]line, sets*cfg.Assoc),
		setMask: uint32(sets - 1),
		assoc:   cfg.Assoc,
	}
	for shift := uint(0); ; shift++ {
		if 1<<shift == cfg.LineSize {
			c.lineShift = shift
			break
		}
	}
	c.tagShift = c.lineShift + uint(popcountMask(c.setMask))
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Notify registers a callback observing residency changes: fn(line, true)
// when a line is installed, fn(line, false) when a valid line leaves (LRU
// eviction, remote invalidation, or Flush). The machine uses it to keep a
// line→holders index so bus snoops visit only the caches that actually
// hold a copy; nil disables notification. State-only transitions (E→M,
// upgrades, snoop downgrades to Shared) do not fire the callback.
func (c *Cache) Notify(fn func(lineAddr uint32, resident bool)) { c.onResident = fn }

// Stats returns a pointer to the cache's running statistics.
func (c *Cache) Stats() *Stats { return &c.stats }

func (c *Cache) set(addr uint32) []line {
	lineNo := addr >> c.lineShift
	set := lineNo & c.setMask
	base := int(set) * c.assoc
	return c.lines[base : base+c.assoc]
}

func (c *Cache) tag(addr uint32) uint32 {
	return addr >> c.tagShift
}

func popcountMask(mask uint32) int {
	n := 0
	for mask != 0 {
		n += int(mask & 1)
		mask >>= 1
	}
	return n
}

func (c *Cache) find(addr uint32) *line {
	// Index the flat line array directly — building the set subslice costs
	// more than the whole lookup on this hot path.
	tag := addr >> c.tagShift
	base := int((addr>>c.lineShift)&c.setMask) * c.assoc
	for i := base; i < base+c.assoc; i++ {
		if c.lines[i].state != Invalid && c.lines[i].tag == tag {
			return &c.lines[i]
		}
	}
	return nil
}

// ProbeResult is the outcome of Probe: whether the access hit and what bus
// transaction, if any, it requires.
type ProbeResult struct {
	Hit  bool
	Need BusNeed
}

// Probe determines what an access to addr needs. It updates hit/miss
// statistics and, on a pure hit, the LRU state and line state (an Exclusive
// line written becomes Modified silently, as in Illinois). Accesses that
// need bus work do not change cache state; the caller performs the bus
// transaction and then calls Fill or Upgrade.
func (c *Cache) Probe(addr uint32, isWrite bool) ProbeResult {
	ln := c.find(addr)
	if ln == nil {
		if isWrite {
			c.stats.WriteMisses++
			return ProbeResult{Need: NeedReadOwn}
		}
		c.stats.ReadMisses++
		return ProbeResult{Need: NeedRead}
	}
	if !isWrite {
		c.stats.ReadHits++
		c.touch(ln)
		return ProbeResult{Hit: true}
	}
	switch ln.state {
	case Modified:
		c.stats.WriteHits++
		c.touch(ln)
		return ProbeResult{Hit: true}
	case Exclusive:
		// Illinois: silent E→M transition, no bus transaction.
		c.stats.WriteHits++
		ln.state = Modified
		c.touch(ln)
		return ProbeResult{Hit: true}
	default: // Shared
		c.stats.WriteHits++
		c.stats.Upgrades++
		return ProbeResult{Hit: true, Need: NeedUpgrade}
	}
}

// ProbeFast applies Probe's pure-hit path in a single lookup: when the
// access hits without needing any bus transaction it performs the hit
// (statistics, LRU touch, silent E→M on a write) and returns true.
// Otherwise it returns false having changed nothing — no statistics — so
// the caller can check buffer space and run the full Probe later without
// double counting. Splitting the cases this way lets the simulator's
// reference hot path skip its pre-Probe space estimate for sure hits.
func (c *Cache) ProbeFast(addr uint32, isWrite bool) bool {
	ln := c.find(addr)
	if ln == nil {
		return false
	}
	if !isWrite {
		c.stats.ReadHits++
		c.touch(ln)
		return true
	}
	switch ln.state {
	case Modified:
		c.stats.WriteHits++
		c.touch(ln)
		return true
	case Exclusive:
		c.stats.WriteHits++
		ln.state = Modified
		c.touch(ln)
		return true
	default: // Shared: the write needs an upgrade transaction
		return false
	}
}

// Peek reports the state of the line containing addr without disturbing
// statistics or LRU order.
func (c *Cache) Peek(addr uint32) State {
	if ln := c.find(addr); ln != nil {
		return ln.state
	}
	return Invalid
}

func (c *Cache) touch(ln *line) {
	c.clock++
	ln.used = c.clock
}

// Victim describes a dirty line evicted by Fill that must be written back.
type Victim struct {
	Addr  uint32 // line-aligned address of the evicted line
	Dirty bool
}

// Fill installs the line containing addr in the given state after a bus
// read or read-for-ownership completes. It returns the victim line if a
// valid line had to be evicted; the caller must schedule a write-back when
// Victim.Dirty is set. Filling a line that is already present simply updates
// its state (this happens when a read-for-ownership races with a snoop).
func (c *Cache) Fill(addr uint32, st State) (Victim, bool) {
	if st == Invalid {
		panic("cache: Fill with Invalid state")
	}
	if ln := c.find(addr); ln != nil {
		ln.state = st
		c.touch(ln)
		return Victim{}, false
	}
	set := c.set(addr)
	victim := &set[0]
	for i := 1; i < len(set); i++ {
		if set[i].state == Invalid {
			victim = &set[i]
			break
		}
		if victim.state != Invalid && set[i].used < victim.used {
			victim = &set[i]
		}
	}
	var evicted Victim
	hadVictim := victim.state != Invalid
	if hadVictim {
		evicted = Victim{
			Addr:  c.lineAddrFromTag(victim.tag, addr),
			Dirty: victim.state == Modified,
		}
		if evicted.Dirty {
			c.stats.WriteBacks++
		}
	}
	victim.tag = c.tag(addr)
	victim.state = st
	c.touch(victim)
	if c.onResident != nil {
		if hadVictim {
			c.onResident(evicted.Addr, false)
		}
		c.onResident(c.cfg.LineAddr(addr), true)
	}
	return evicted, hadVictim
}

func (c *Cache) lineAddrFromTag(tag, addrInSet uint32) uint32 {
	setBits := uint(popcountMask(c.setMask))
	set := (addrInSet >> c.lineShift) & c.setMask
	return (tag<<setBits | set) << c.lineShift
}

// WillEvict predicts, without changing any state, whether installing the
// line containing addr right now would evict a valid line, and which one.
func (c *Cache) WillEvict(addr uint32) (Victim, bool) {
	if c.find(addr) != nil {
		return Victim{}, false
	}
	set := c.set(addr)
	victim := &set[0]
	for i := 1; i < len(set); i++ {
		if set[i].state == Invalid {
			return Victim{}, false
		}
		if set[i].used < victim.used {
			victim = &set[i]
		}
	}
	if victim.state == Invalid {
		return Victim{}, false
	}
	return Victim{
		Addr:  c.lineAddrFromTag(victim.tag, addr),
		Dirty: victim.state == Modified,
	}, true
}

// EvictFor removes the LRU line of addr's set immediately, making room for
// a fill that has been issued but not yet completed. The paper's machine
// moves the dirty victim into the cache-bus buffer at miss time, where it
// remains visible to the coherence mechanism; the caller models that by
// queueing a write-back entry when the returned victim is dirty. EvictFor
// is a no-op when the set has a free way or the line is already present.
func (c *Cache) EvictFor(addr uint32) (Victim, bool) {
	v, will := c.WillEvict(addr)
	if !will {
		return Victim{}, false
	}
	set := c.set(addr)
	victim := &set[0]
	for i := 1; i < len(set); i++ {
		if set[i].used < victim.used {
			victim = &set[i]
		}
	}
	if v.Dirty {
		c.stats.WriteBacks++
	}
	victim.state = Invalid
	if c.onResident != nil {
		c.onResident(v.Addr, false)
	}
	return v, true
}

// Upgrade moves a Shared line to Modified after the invalidation transaction
// for a write hit completes. It reports whether the line was still present
// (a racing remote write may have invalidated it, converting the upgrade
// into a miss the caller must retry as a read-for-ownership).
func (c *Cache) Upgrade(addr uint32) bool {
	ln := c.find(addr)
	if ln == nil {
		return false
	}
	ln.state = Modified
	c.touch(ln)
	return true
}

// SnoopOp is a bus transaction kind observed by a snooping cache.
type SnoopOp uint8

const (
	// SnoopRead: another processor issued a bus read for the line.
	SnoopRead SnoopOp = iota
	// SnoopReadOwn: another processor issued a read-for-ownership.
	SnoopReadOwn
	// SnoopInvalidate: another processor issued an upgrade invalidation.
	SnoopInvalidate
)

// SnoopResult reports how the cache responded to a snooped transaction.
type SnoopResult struct {
	HadCopy  bool // the line was present in this cache
	Supplied bool // this cache will supply the data (cache-to-cache)
	WasDirty bool // the copy was Modified (memory must also be updated)
}

// Snoop applies a remote bus transaction to this cache, performing the
// Illinois state transitions:
//
//	remote read:   M→S (supply, write back), E→S (supply), S→S (supply)
//	remote RFO:    M→I (supply, write back), E→I (supply), S→I (supply)
//	remote upgrade: any→I (no data transfer; the writer already has it)
//
// Illinois supplies data cache-to-cache even for clean lines; the bus
// arbitration guarantees exactly one supplier, which the machine enforces by
// accepting the first cache that reports Supplied.
func (c *Cache) Snoop(addr uint32, op SnoopOp) SnoopResult {
	ln := c.find(addr)
	if ln == nil {
		return SnoopResult{}
	}
	return c.snoopLine(ln, addr, op)
}

// snoopLine applies Snoop's transition to ln, the valid line holding addr.
// It is the one snoop transition, shared by Snoop and the speculation
// journal's snoop paths.
func (c *Cache) snoopLine(ln *line, addr uint32, op SnoopOp) SnoopResult {
	res := SnoopResult{HadCopy: true, WasDirty: ln.state == Modified}
	c.stats.SnoopHits++
	switch op {
	case SnoopRead:
		res.Supplied = true
		c.stats.SnoopSupply++
		ln.state = Shared
	case SnoopReadOwn:
		res.Supplied = true
		c.stats.SnoopSupply++
		ln.state = Invalid
		c.stats.Invalidated++
	case SnoopInvalidate:
		ln.state = Invalid
		c.stats.Invalidated++
	}
	if ln.state == Invalid && c.onResident != nil {
		c.onResident(c.cfg.LineAddr(addr), false)
	}
	return res
}

// Flush invalidates every line, returning the line addresses of all dirty
// lines (used by tests and by machine reset).
func (c *Cache) Flush() []uint32 {
	var dirty []uint32
	sets := c.cfg.Sets()
	setBits := uint(popcountMask(c.setMask))
	for s := 0; s < sets; s++ {
		for w := 0; w < c.assoc; w++ {
			ln := &c.lines[s*c.assoc+w]
			if ln.state == Invalid {
				continue
			}
			addr := (ln.tag<<setBits | uint32(s)) << c.lineShift
			if ln.state == Modified {
				dirty = append(dirty, addr)
			}
			ln.state = Invalid
			if c.onResident != nil {
				c.onResident(addr, false)
			}
		}
	}
	return dirty
}

// ForEachLine calls fn for every valid line with its line-aligned address
// and state. Used by coherence-invariant checkers.
func (c *Cache) ForEachLine(fn func(addr uint32, st State)) {
	sets := c.cfg.Sets()
	setBits := uint(popcountMask(c.setMask))
	for s := 0; s < sets; s++ {
		for w := 0; w < c.assoc; w++ {
			ln := &c.lines[s*c.assoc+w]
			if ln.state != Invalid {
				fn((ln.tag<<setBits|uint32(s))<<c.lineShift, ln.state)
			}
		}
	}
}

// CountValid returns the number of valid lines, for occupancy checks.
func (c *Cache) CountValid() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].state != Invalid {
			n++
		}
	}
	return n
}
