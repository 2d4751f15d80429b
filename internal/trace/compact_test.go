package trace

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

func TestCompactRoundTrip(t *testing.T) {
	events := []Event{
		Exec(10), ReadAfter(3, 0x1000), WriteAfter(0, 0x2000),
		IFetchAfter(2, 0x100), Lock(1, 0x9000), Exec(5), Unlock(1, 0x9000),
		Barrier(2),
	}
	var c Compact
	for _, ev := range events {
		c.Add(ev)
	}
	if c.Len() != len(events) {
		t.Fatalf("Len = %d, want %d", c.Len(), len(events))
	}
	got := Drain(c.NewSource())
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("replay = %v, want %v", got, events)
	}
}

func TestCompactMultipleCursors(t *testing.T) {
	var c Compact
	c.Add(Exec(1))
	c.Add(Read(0x10))
	s1, s2 := c.NewSource(), c.NewSource()
	a1 := Drain(s1)
	a2 := Drain(s2)
	if !reflect.DeepEqual(a1, a2) {
		t.Fatalf("cursors disagree: %v vs %v", a1, a2)
	}
}

func TestCompactRewind(t *testing.T) {
	var c Compact
	c.Add(Read(0x10))
	c.Add(Write(0x20))
	s := c.NewSource()
	first := Drain(s)
	s.Rewind()
	second := Drain(s)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("rewind replay differs")
	}
}

func TestCompactAddInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add of invalid kind did not panic")
		}
	}()
	var c Compact
	c.Add(Event{Kind: 99})
}

func TestCompactSet(t *testing.T) {
	var a, b Compact
	a.Add(Exec(1))
	b.Add(Exec(2))
	b.Add(Exec(3))
	set := CompactSet("cs", []*Compact{&a, &b})
	if set.NCPU() != 2 || set.Name != "cs" {
		t.Fatalf("set = %+v", set)
	}
	if len(Drain(set.Sources[1])) != 2 {
		t.Fatal("cpu1 replay wrong")
	}
}

func TestCompactCompression(t *testing.T) {
	var c Compact
	addr := uint32(0x1000)
	for i := 0; i < 10000; i++ {
		c.Add(ReadAfter(3, addr))
		addr += 4
	}
	if got := c.Bytes(); got > 4*c.Len() {
		t.Errorf("compact trace uses %d bytes for %d events", got, c.Len())
	}
}

// Property: Compact replay equals the original stream for arbitrary events.
func TestCompactRoundTripProperty(t *testing.T) {
	check := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		events := randomEvents(rng, int(n%1000))
		var c Compact
		for _, ev := range events {
			c.Add(ev)
		}
		got := Drain(c.NewSource())
		if len(got) != len(events) {
			return false
		}
		for i := range events {
			if got[i] != events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// encodedSize is the varint encoding size of events, computed without
// Compact: one kind byte, the argument, and for addressed kinds the zigzag
// delta from the previous address.
func encodedSize(events []Event) int {
	var tmp [binary.MaxVarintLen64]byte
	n, prev := 0, uint32(0)
	for _, ev := range events {
		n++
		switch ev.Kind {
		case KindExec, KindBarrier:
			n += binary.PutUvarint(tmp[:], uint64(ev.Arg))
		case KindIFetch, KindRead, KindWrite, KindLock, KindUnlock:
			n += binary.PutUvarint(tmp[:], uint64(ev.Arg))
			n += binary.PutVarint(tmp[:], int64(int32(ev.Addr-prev)))
			prev = ev.Addr
		}
	}
	return n
}

// multiChunk builds a Compact over random events whose random addresses
// give multi-byte varints everywhere, chunk boundaries included.
func multiChunk(t *testing.T, n int) (*Compact, []Event) {
	t.Helper()
	events := randomEvents(rand.New(rand.NewSource(7)), n)
	var c Compact
	for _, ev := range events {
		c.Add(ev)
	}
	if len(c.chunks) < 4 {
		t.Fatalf("%d events fill only %d closed chunks, want several", n, len(c.chunks))
	}
	return &c, events
}

func TestCompactChunkedReplay(t *testing.T) {
	c, events := multiChunk(t, 20_000)
	set := CompactSet("chunked", []*Compact{c})
	got := Drain(set.Sources[0])
	want := Drain(NewBuffer(events))
	if !reflect.DeepEqual(got, want) {
		t.Fatal("chunked replay differs from a Buffer of the same events")
	}
	if c.Bytes() != encodedSize(events) {
		t.Errorf("Bytes() = %d, encoded size %d", c.Bytes(), encodedSize(events))
	}
	for k, ch := range c.chunks {
		if want := min(firstChunk<<k, maxChunk); cap(ch) != want {
			t.Errorf("chunk %d has capacity %d, want %d", k, cap(ch), want)
		}
	}
	if cap(c.tail) != len(c.tail) {
		t.Errorf("sealed tail keeps %d spare bytes", cap(c.tail)-len(c.tail))
	}
}

func TestCompactMarkAcrossChunks(t *testing.T) {
	c, events := multiChunk(t, 20_000)
	src := c.NewSource()
	// Stop one event into chunk 1, mark, then read on into chunk 3.
	for src.Mark().Chunk < 1 {
		src.Next()
	}
	src.Next()
	m := src.Mark()
	if m.Chunk != 1 {
		t.Fatalf("mark in chunk %d, want 1", m.Chunk)
	}
	for src.Mark().Chunk < 3 {
		if _, ok := src.Next(); !ok {
			t.Fatal("trace ended before chunk 3")
		}
	}
	src.Seek(m)
	if got, want := Drain(src), events[m.Read:]; !reflect.DeepEqual(got, want) {
		t.Fatal("replay after Seek back across two chunks differs")
	}

	src.Rewind()
	if got := Drain(src); !reflect.DeepEqual(got, events) {
		t.Fatal("replay after Rewind from the last chunk differs")
	}
	clone := src.CloneSource()
	if got := Drain(clone); !reflect.DeepEqual(got, events) {
		t.Fatal("clone of an exhausted cursor does not replay from the start")
	}
}

// Growing by chunks copies nothing, so adding events allocates about their
// encoded size: at most 1.25× Bytes() plus one chunk for the tail's spare
// capacity (and the trim). Growing one buffer by append allocates 4–5×.
func TestCompactAddAllocation(t *testing.T) {
	events := make([]Event, 1_000_000)
	for i := range events {
		events[i] = ReadAfter(uint32(i%3), uint32(0x1000+4*(i%64)))
	}
	var c Compact
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, ev := range events {
		c.Add(ev)
	}
	CompactSet("alloc", []*Compact{&c})
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	if limit := uint64(1.25*float64(c.Bytes())) + maxChunk; alloc > limit {
		t.Errorf("adding %d events (%d bytes) allocated %d bytes, limit %d", len(events), c.Bytes(), alloc, limit)
	}
}
