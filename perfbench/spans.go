package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call across a layer boundary, recorded by the
// benchmark's own code around a call into the program. Times are offsets
// from the recorder's epoch.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"` // 0: root, or parent not yet resolved
	Req    uint64        `json:"req,omitempty"`    // request id shared by a request's spans
	Name   string        `json:"name"`             // "<layer>.<what>"
	Node   string        `json:"node,omitempty"`   // which in-process server recorded it
	Key    string        `json:"key,omitempty"`    // job key, for parentage by key
	Keys   []string      `json:"keys,omitempty"`   // cell keys a sweep fans out to
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Layer is the span's layer: its name up to the first dot.
func (s Span) Layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// Dur is the span's duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Recorder keeps spans in memory until the run ends. A nil *Recorder is
// inert, so untraced runs pass nil and pay one nil check per boundary.
type Recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

// NewRecorder returns an empty recorder whose epoch is now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Begin opens a span and returns its id (0 on a nil recorder).
func (r *Recorder) Begin(name string, parent int, req uint64) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return len(r.spans)
}

// Annotate sets the node and keys of an open span.
func (r *Recorder) Annotate(id int, node, key string, keys []string) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.Node, s.Key, s.Keys = node, key, keys
}

// Finish closes a span.
func (r *Recorder) Finish(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now
}

// Add records a complete span whose interval is already known and returns
// its id.
func (r *Recorder) Add(s Span) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// Spans returns a copy of the finished spans (unfinished ones, such as a
// request cut off by the deadline, are dropped).
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// Since returns the offset of t from the recorder's epoch.
func (r *Recorder) Since(t time.Time) time.Duration { return t.Sub(r.epoch) }

// spanRef is the (span, request) identity carried through a context so a
// callee's span can name its caller's as parent.
type spanRef struct {
	id  int
	req uint64
}

type spanKey struct{}

func withSpan(ctx context.Context, id int, req uint64) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{id: id, req: req})
}

func spanFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref
}

// unionLen returns the total length covered by a set of intervals.
func unionLen(iv [][2]time.Duration) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
			continue
		}
		if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return total + cur[1] - cur[0]
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that the union of its children covers (children are
// clipped to the parent, so a child outliving its parent — a hedged
// attempt cancelled after the winner returned — counts only while the
// parent is open).
func selfTimes(spans []Span) map[int]time.Duration {
	byID := make(map[int]Span, len(spans))
	children := make(map[int][][2]time.Duration)
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if s.Parent == 0 || !ok {
			continue
		}
		lo, hi := s.Start, s.End
		if lo < p.Start {
			lo = p.Start
		}
		if hi > p.End {
			hi = p.End
		}
		if hi > lo {
			children[p.ID] = append(children[p.ID], [2]time.Duration{lo, hi})
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur() - unionLen(children[s.ID])
	}
	return self
}

// resolveByKey assigns parents to spans recorded on a hop that does not
// carry the caller's span: a parentless span named child gets, among the
// spans named parent that list its key (in Key or Keys) and whose
// interval contains it, the earliest-starting one — the caller whose
// request started the work, since later callers with the same key
// coalesce onto it. A node restriction applies when sameNode is set.
func resolveByKey(spans []Span, child, parent string, sameNode bool) {
	cands := map[string][]int{} // key -> indices of parent spans
	for i, s := range spans {
		if s.Name != parent {
			continue
		}
		if s.Key != "" {
			cands[s.Key] = append(cands[s.Key], i)
		}
		for _, k := range s.Keys {
			cands[k] = append(cands[k], i)
		}
	}
	for i := range spans {
		c := &spans[i]
		if c.Name != child || c.Parent != 0 {
			continue
		}
		best := -1
		for _, pi := range cands[c.Key] {
			p := spans[pi]
			if p.Start > c.Start || p.End < c.End || (sameNode && p.Node != c.Node) {
				continue
			}
			if best < 0 || p.Start < spans[best].Start {
				best = pi
			}
		}
		if best >= 0 {
			c.Parent = spans[best].ID
			c.Req = spans[best].Req
		}
	}
}

// Accounting splits the benchmark's operation time over layers.
type Accounting struct {
	// Roots is the summed duration of the root spans: the operations.
	Roots time.Duration
	// Self maps a layer to its summed self time over every span in the
	// root spans' trees. With parallel children (a fan-out, or several
	// workers) the layers together exceed Roots.
	Self map[string]time.Duration
	// Time maps a layer to the operation time attributed to it: each
	// instant of a root span is split equally among the deepest spans of
	// its tree open at that instant. These add up to Roots exactly, with
	// the instants no layer span covers under rootLayer.
	Time map[string]time.Duration
}

// rootLayer names the layer of the benchmark's own operation spans: time
// inside an operation that no program layer's span covers.
const rootLayer = "bench"

// account computes the layer accounting over the trees of the spans whose
// layer is rootLayer. Spans outside those trees are ignored.
func account(spans []Span) Accounting {
	self := selfTimes(spans)
	byID := make(map[int]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	rootOf := func(id int) int {
		for seen := 0; byID[id].Parent != 0 && seen < 64; seen++ {
			id = byID[id].Parent
		}
		return id
	}
	trees := map[int][]Span{}
	a := Accounting{Self: map[string]time.Duration{}, Time: map[string]time.Duration{}}
	for _, s := range spans {
		r := rootOf(s.ID)
		if byID[r].Layer() != rootLayer {
			continue
		}
		if s.ID == r {
			a.Roots += s.Dur()
			a.Self[rootLayer] += self[s.ID]
			trees[r] = append(trees[r], s)
			continue
		}
		a.Self[s.Layer()] += self[s.ID]
		trees[r] = append(trees[r], s)
	}
	for r, tree := range trees {
		for l, d := range splitTimeline(byID[r], tree) {
			a.Time[l] += d
		}
	}
	return a
}

// splitTimeline attributes a root span's interval to layers: between
// consecutive span boundaries, the time goes in equal parts to the
// deepest open spans (those with no open child), clipped to the root.
func splitTimeline(root Span, tree []Span) map[string]time.Duration {
	clip := func(t time.Duration) time.Duration {
		return min(max(t, root.Start), root.End)
	}
	points := []time.Duration{root.Start, root.End}
	for _, s := range tree {
		points = append(points, clip(s.Start), clip(s.End))
	}
	sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })
	out := map[string]time.Duration{}
	for i := 1; i < len(points); i++ {
		lo, hi := points[i-1], points[i]
		if hi == lo {
			continue
		}
		var open []Span
		parents := map[int]bool{}
		for _, s := range tree {
			if clip(s.Start) <= lo && clip(s.End) >= hi {
				open = append(open, s)
				parents[s.Parent] = true
			}
		}
		var leaves []Span
		for _, s := range open {
			if !parents[s.ID] {
				leaves = append(leaves, s)
			}
		}
		for _, s := range leaves {
			out[s.Layer()] += (hi - lo) / time.Duration(len(leaves))
		}
	}
	return out
}

// Share returns each layer's share of the operation time (Time over
// Roots); with rootLayer's share of unattributed time they add up to 1.
func (a Accounting) Share() map[string]float64 {
	out := make(map[string]float64, len(a.Time))
	for l, d := range a.Time {
		out[l] = ratio(float64(d), float64(a.Roots))
	}
	return out
}

// UnattributedFrac is the share of operation time no layer span covers.
func (a Accounting) UnattributedFrac() float64 {
	return ratio(float64(a.Time[rootLayer]), float64(a.Roots))
}

// writeSpans writes the spans as JSON lines to path, creating its
// directory.
func writeSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("trace output: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace output: %w", err)
	}
	return f.Close()
}

// spanSums sums span durations by span name.
func spanSums(spans []Span) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.Dur()
	}
	return out
}

// selfByRootClass sums self times by span name, separately for each class
// of root operation (class maps a root span id to its class).
func selfByRootClass(spans []Span, class map[int]string) map[string]map[string]time.Duration {
	self := selfTimes(spans)
	parent := make(map[int]int, len(spans))
	for _, s := range spans {
		parent[s.ID] = s.Parent
	}
	out := map[string]map[string]time.Duration{}
	for _, s := range spans {
		r := s.ID
		for seen := 0; parent[r] != 0 && seen < 64; seen++ {
			r = parent[r]
		}
		c, ok := class[r]
		if !ok {
			continue
		}
		if out[c] == nil {
			out[c] = map[string]time.Duration{}
		}
		out[c][s.Name] += self[s.ID]
	}
	return out
}
