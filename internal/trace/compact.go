package trace

import (
	"encoding/binary"
	"fmt"
)

// Chunk sizing for Compact. The first chunk is small so that a short
// trace (one CPU of a served request at a tiny scale) does not pay for a
// large one; each further chunk doubles up to maxChunk, so a
// multi-megabyte trace is a few hundred large chunks.
const (
	firstChunk = 512
	maxChunk   = 256 << 10
	// maxEventBytes bounds one encoded event: the kind byte, a 5-byte
	// uvarint argument and a 5-byte zigzag address delta.
	maxEventBytes = 1 + binary.MaxVarintLen32 + binary.MaxVarintLen32
)

// Compact is an append-only, varint-encoded in-memory trace for one
// processor. Large generated traces (millions of events) stay at a few
// bytes per event instead of the 12 bytes of the Event struct, which makes
// paper-scale workloads (multi-million references per CPU) practical to
// hold in memory.
//
// The encoding lives in a list of chunks. Chunk sizes grow geometrically
// from firstChunk to maxChunk, and an event never straddles two chunks: a
// chunk is closed once the next event might not fit. Growing by chunks
// instead of by append means no byte is ever copied to a larger buffer, so
// generating a trace allocates about its encoded size instead of the
// several times that append's reallocations cost. The growth is geometric,
// not fixed, so that small traces do not each pay for one large chunk.
// CompactSet trims the last chunk to its length, so a sealed trace holds
// at most a few bytes of slack per chunk.
//
// Append events with Add, then create any number of independent replay
// cursors with NewSource.
type Compact struct {
	chunks   [][]byte // closed chunks
	tail     []byte   // chunk being appended to
	sealed   int      // bytes in chunks
	n        int
	prevAddr uint32
}

// Len returns the number of events stored.
func (c *Compact) Len() int { return c.n }

// Bytes returns the encoded size in bytes, for diagnostics.
func (c *Compact) Bytes() int { return c.sealed + len(c.tail) }

// chunk returns chunk k; the tail follows the closed chunks.
func (c *Compact) chunk(k int) []byte {
	if k < len(c.chunks) {
		return c.chunks[k]
	}
	return c.tail
}

// grow closes the tail and opens the next, larger, chunk.
func (c *Compact) grow() {
	size := firstChunk
	if c.tail != nil {
		c.chunks = append(c.chunks, c.tail)
		c.sealed += len(c.tail)
		size = min(2*cap(c.tail), maxChunk)
	}
	c.tail = make([]byte, 0, size)
}

// seal trims the tail chunk to its length, releasing its unused capacity.
// Adding after seal stays correct: the next Add opens a new chunk.
func (c *Compact) seal() {
	if cap(c.tail) > len(c.tail) {
		c.tail = append(make([]byte, 0, len(c.tail)), c.tail...)
	}
}

// Add appends an event. It panics on invalid event kinds; generators are
// trusted code.
func (c *Compact) Add(ev Event) {
	if !ev.Kind.Valid() {
		panic(fmt.Sprintf("trace: Compact.Add of invalid kind %d", ev.Kind))
	}
	if cap(c.tail)-len(c.tail) < maxEventBytes {
		c.grow()
	}
	b := append(c.tail, byte(ev.Kind))
	switch ev.Kind {
	case KindExec, KindBarrier:
		b = binary.AppendUvarint(b, uint64(ev.Arg))
	case KindIFetch, KindRead, KindWrite, KindLock, KindUnlock:
		b = binary.AppendUvarint(b, uint64(ev.Arg))
		b = binary.AppendVarint(b, int64(int32(ev.Addr-c.prevAddr)))
		c.prevAddr = ev.Addr
	case KindEnd:
	}
	c.tail = b
	c.n++
}

// NewSource returns a replay cursor positioned at the first event. Multiple
// cursors over one Compact are independent; the Compact must not be
// appended to while cursors are in use.
func (c *Compact) NewSource() *CompactSource {
	return &CompactSource{c: c, cur: c.chunk(0)}
}

// CompactSource replays a Compact trace as a Source.
type CompactSource struct {
	c        *Compact
	cur      []byte // chunk being decoded
	chunk    int    // index of cur
	pos      int    // offset in cur
	read     int
	prevAddr uint32
}

// uvarintLong decodes a multi-byte unsigned varint at b[i:] and returns
// it with the offset after it. Next decodes the one-byte case itself.
func uvarintLong(b []byte, i int) (uint64, int) {
	v, n := binary.Uvarint(b[i:])
	return v, i + n
}

// nextChunk moves the cursor to the start of the next chunk. Events never
// straddle chunks, so this is only ever needed between events. A cursor
// made before the events were added sees its chunk grow instead.
func (s *CompactSource) nextChunk() {
	if cur := s.c.chunk(s.chunk); s.pos < len(cur) {
		s.cur = cur
		return
	}
	s.chunk++
	s.cur = s.c.chunk(s.chunk)
	s.pos = 0
}

// Next implements Source. It decodes through locals and stores the
// cursor once. Generated traces are dominated by single-byte varints
// (small exec bursts, short address deltas), so each varint's one-byte
// case is written out inline — a helper holding it would be too large
// for the compiler to inline — and only the rare multi-byte value pays
// for a call.
func (s *CompactSource) Next() (Event, bool) {
	if s.read >= s.c.n {
		return Event{}, false
	}
	if s.pos >= len(s.cur) {
		s.nextChunk()
	}
	b, i := s.cur, s.pos
	ev := Event{Kind: Kind(b[i])}
	i++
	var v uint64
	switch ev.Kind {
	case KindExec, KindBarrier:
		if c := b[i]; c < 0x80 {
			v, i = uint64(c), i+1
		} else {
			v, i = uvarintLong(b, i)
		}
		ev.Arg = uint32(v)
	case KindIFetch, KindRead, KindWrite, KindLock, KindUnlock:
		if c := b[i]; c < 0x80 {
			v, i = uint64(c), i+1
		} else {
			v, i = uvarintLong(b, i)
		}
		ev.Arg = uint32(v)
		if c := b[i]; c < 0x80 {
			v, i = uint64(c), i+1
		} else {
			v, i = uvarintLong(b, i)
		}
		s.prevAddr += uint32(int32(int64(v>>1) ^ -int64(v&1))) // unzigzag
		ev.Addr = s.prevAddr
	case KindEnd:
	}
	s.pos = i
	s.read++
	return ev, true
}

// CloneSource returns an independent cursor over the same compact trace,
// positioned at the first event of the first chunk. The chunks are shared
// read-only.
func (s *CompactSource) CloneSource() Source { return s.c.NewSource() }

// Len returns the total number of events in the underlying compact trace.
func (s *CompactSource) Len() int { return s.c.n }

// Rewind repositions the cursor at the first event of the first chunk.
func (s *CompactSource) Rewind() {
	s.Seek(Mark{})
}

// Mark implements Marker. The snapshot carries the chunk index, the byte
// offset in that chunk, the event count, and the address-delta decoder
// state, so Seek restores the cursor bit-exactly mid-stream.
func (s *CompactSource) Mark() Mark {
	return Mark{Chunk: s.chunk, Pos: s.pos, Read: s.read, PrevAddr: s.prevAddr}
}

// Seek implements Marker.
func (s *CompactSource) Seek(m Mark) {
	s.chunk = m.Chunk
	s.cur = s.c.chunk(m.Chunk)
	s.pos = m.Pos
	s.read = m.Read
	s.prevAddr = m.PrevAddr
}

// CompactSet seals the given compact per-CPU traces and builds a trace Set
// whose sources replay them.
func CompactSet(name string, cpus []*Compact) *Set {
	set := &Set{Name: name, Sources: make([]Source, len(cpus))}
	for i, c := range cpus {
		c.seal()
		set.Sources[i] = c.NewSource()
	}
	return set
}
