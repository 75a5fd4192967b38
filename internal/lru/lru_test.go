package lru

import (
	"slices"
	"testing"
)

// model is the reference FuzzLRU checks Cache against: a slice of entries
// in recency order, most recent first, evicted from the back.
type model struct {
	budget    int64
	entries   []modelEntry
	evictions int64
}

type modelEntry struct {
	key, val int
	size     int64
}

func (m *model) find(k int) int {
	return slices.IndexFunc(m.entries, func(e modelEntry) bool { return e.key == k })
}

func (m *model) size() int64 {
	var n int64
	for _, e := range m.entries {
		n += e.size
	}
	return n
}

func (m *model) get(k int) (int, bool) {
	i := m.find(k)
	if i < 0 {
		return 0, false
	}
	e := m.entries[i]
	m.entries = slices.Insert(slices.Delete(m.entries, i, i+1), 0, e)
	return e.val, true
}

func (m *model) add(k, v int, size int64) bool {
	if size < 0 || size > m.budget {
		return false
	}
	if i := m.find(k); i >= 0 {
		m.entries = slices.Delete(m.entries, i, i+1)
	}
	m.entries = slices.Insert(m.entries, 0, modelEntry{k, v, size})
	for m.size() > m.budget {
		m.entries = m.entries[:len(m.entries)-1]
		m.evictions++
	}
	return true
}

func (m *model) remove(k int) bool {
	i := m.find(k)
	if i >= 0 {
		m.entries = slices.Delete(m.entries, i, i+1)
	}
	return i >= 0
}

// check compares c with m entry by entry, walking the recency ring both
// ways, and checks the totals and the budget.
func check(t *testing.T, step int, c *Cache[int, int], m *model) {
	t.Helper()
	var fwd []modelEntry
	for e := c.root.next; e != &c.root; e = e.next {
		if e.next.prev != e {
			t.Fatalf("step %d: broken link after key %d", step, e.key)
		}
		if c.items[e.key] != e {
			t.Fatalf("step %d: key %d in the ring but not in the map", step, e.key)
		}
		fwd = append(fwd, modelEntry{e.key, e.val, e.size})
	}
	if !slices.Equal(fwd, m.entries) {
		t.Fatalf("step %d: entries %v, want %v", step, fwd, m.entries)
	}
	if c.Len() != len(m.entries) || c.Size() != m.size() || c.Evictions() != m.evictions {
		t.Fatalf("step %d: len %d size %d evictions %d, want %d %d %d", step,
			c.Len(), c.Size(), c.Evictions(), len(m.entries), m.size(), m.evictions)
	}
	if c.Size() > c.budget {
		t.Fatalf("step %d: size %d over budget %d", step, c.Size(), c.budget)
	}
}

// FuzzLRU runs random Add, Get and Remove sequences against the slice
// model. Each op is two bytes: the first picks the operation and one of
// eight keys, the second the size an Add charges, from -1 (refused) up
// past most budgets (refused too).
func FuzzLRU(f *testing.F) {
	f.Add(uint8(10), []byte{0, 4, 3, 4, 6, 4, 1, 0, 0, 12, 5, 0, 8, 1})
	f.Add(uint8(0), []byte{0, 1, 0, 0, 2, 0, 1, 0})
	f.Add(uint8(31), []byte{0, 31, 3, 20, 0, 0, 6, 32, 9, 11, 2, 0})
	f.Fuzz(func(t *testing.T, budget uint8, ops []byte) {
		c := New[int, int](int64(budget % 64))
		m := &model{budget: int64(budget % 64)}
		for i := 0; i+1 < len(ops); i += 2 {
			k := int(ops[i]/3) % 8
			switch ops[i] % 3 {
			case 0:
				size := int64(ops[i+1]%72) - 1
				if got, want := c.Add(k, i, size), m.add(k, i, size); got != want {
					t.Fatalf("step %d: Add(%d, size %d) = %v, want %v", i, k, size, got, want)
				}
			case 1:
				v, ok := c.Get(k)
				if mv, mok := m.get(k); v != mv || ok != mok {
					t.Fatalf("step %d: Get(%d) = %d %v, want %d %v", i, k, v, ok, mv, mok)
				}
			case 2:
				if got, want := c.Remove(k), m.remove(k); got != want {
					t.Fatalf("step %d: Remove(%d) = %v, want %v", i, k, got, want)
				}
			}
			check(t, i, c, m)
		}
	})
}
