package lru

import (
	"strings"
	"testing"
)

// TestCache drives a cache through a script of operations and checks the
// bound after every step, then which keys survived. Ops are
// space-separated: "+k" puts k (its value is the op's index), "?k" gets k,
// "-k" removes k.
func TestCache(t *testing.T) {
	for _, tc := range []struct {
		name     string
		capacity int
		ops      string
		present  string // keys that must still be held, with their last put value
		absent   string
		evicted  int // Put calls that reported an eviction
	}{
		// The server's result-cache bound: ten puts into three slots keep
		// the newest three.
		{"bound", 3, "+k0 +k1 +k2 +k3 +k4 +k5 +k6 +k7 +k8 +k9", "k7 k8 k9", "k0 k6", 7},
		{"get refreshes recency", 2, "+a +b ?a +c", "a c", "b", 1},
		{"put refreshes recency", 2, "+a +b +a +c", "a c", "b", 1},
		{"put replaces the value", 2, "+a +a +a", "a", "", 0},
		{"zero capacity stores nothing", 0, "+a ?a +b", "", "a b", 0},
		{"negative capacity stores nothing", -1, "+a", "", "a", 0},
		{"remove frees a slot", 2, "+a +b -a +c", "b c", "a", 0},
		{"remove of an absent key", 2, "+a -b +b", "a b", "", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New[string, int](tc.capacity)
			last := map[string]int{}
			evicted := 0
			for i, op := range strings.Fields(tc.ops) {
				key := op[1:]
				switch op[0] {
				case '+':
					if c.Put(key, i) {
						evicted++
					}
					last[key] = i
				case '?':
					c.Get(key)
				case '-':
					c.Remove(key)
				}
				if n := c.Len(); n > max(tc.capacity, 0) {
					t.Fatalf("after %q: len = %d > capacity %d", op, n, tc.capacity)
				}
			}
			if evicted != tc.evicted {
				t.Errorf("evictions = %d, want %d", evicted, tc.evicted)
			}
			present := strings.Fields(tc.present)
			if n := c.Len(); n != len(present) {
				t.Errorf("len = %d, want %d", n, len(present))
			}
			for _, k := range present {
				if v, ok := c.Get(k); !ok || v != last[k] {
					t.Errorf("Get(%q) = %d, %t; want %d, true", k, v, ok, last[k])
				}
			}
			for _, k := range strings.Fields(tc.absent) {
				if _, ok := c.Get(k); ok {
					t.Errorf("Get(%q) hit; want it evicted or never stored", k)
				}
			}
		})
	}
}
