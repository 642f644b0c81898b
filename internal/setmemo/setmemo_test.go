package setmemo

import (
	"math/rand"
	"slices"
	"testing"
)

func TestSetFillAndMembers(t *testing.T) {
	s := make(Set, Words(130))
	if !s.Fill([]int{129, 3, 64, 0}, 130) {
		t.Fatal("a valid set was rejected")
	}
	if got := s.AppendMembers(nil); !slices.Equal(got, []int{0, 3, 64, 129}) {
		t.Fatalf("members = %v, want ascending [0 3 64 129]", got)
	}
	for _, bad := range [][]int{{1, 130}, {-1}, {5, 7, 5}} {
		if s.Fill(bad, 130) {
			t.Fatalf("Fill(%v) accepted a list that is not a set of [0, 130)", bad)
		}
	}
	// A refill starts from the empty set.
	if !s.Fill([]int{2}, 130) || !slices.Equal(s.AppendMembers(nil), []int{2}) {
		t.Fatalf("refill = %v, want [2]", s.AppendMembers(nil))
	}
}

type result struct{ jq, bound float64 }

// Two sets whose hashes collide must each get their own value back: the
// first stays stored, the second is a miss every time and is not stored.
func TestMemoForcedCollision(t *testing.T) {
	defer func(h func(Set) uint64) { hash = h }(hash)
	hash = func(Set) uint64 { return 42 }

	m := New[result](100, 16)
	a, b := make(Set, Words(100)), make(Set, Words(100))
	a.Fill([]int{1, 2}, 100)
	b.Fill([]int{1, 3}, 100)
	m.Put(a, result{0.7, 0.1})
	if _, ok := m.Get(b); ok {
		t.Fatal("a colliding set was answered from another set's entry")
	}
	m.Put(b, result{0.8, 0.2})
	if m.Len() != 1 {
		t.Fatalf("Len = %d after a colliding Put, want 1", m.Len())
	}
	if v, ok := m.Get(a); !ok || v != (result{0.7, 0.1}) {
		t.Fatalf("Get(a) = %v, %v, want its own value", v, ok)
	}
	if _, ok := m.Get(b); ok {
		t.Fatal("the colliding set was stored")
	}
}

func TestMemoLimitAndReset(t *testing.T) {
	m := New[int](70, 3)
	s := make(Set, Words(70))
	for i := 0; i < 6; i++ {
		s.Fill([]int{i, 69}, 70)
		m.Put(s, i)
	}
	if m.Len() != 3 {
		t.Fatalf("Len = %d, want the limit 3", m.Len())
	}
	s.Fill([]int{2, 69}, 70)
	if v, ok := m.Get(s); !ok || v != 2 {
		t.Fatalf("Get = %v, %v, want 2", v, ok)
	}
	s.Fill([]int{4, 69}, 70)
	if _, ok := m.Get(s); ok {
		t.Fatal("an entry past the limit was stored")
	}
	m.Reset(10, 3)
	if m.Len() != 0 {
		t.Fatalf("Len = %d after Reset, want 0", m.Len())
	}
	small := make(Set, Words(10))
	small.Fill([]int{2}, 10)
	if _, ok := m.Get(small); ok {
		t.Fatal("Reset kept an entry")
	}
	var nilMemo *Memo[int]
	if nilMemo.Len() != 0 {
		t.Fatal("a nil Memo reports entries")
	}
}

// Hits never allocate; inserts allocate only when the index or the arena
// grows, so re-inserting into a Reset memo of the same size allocates
// nothing.
func TestMemoSteadyStateAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 128
	sets := make([]Set, 200)
	for i := range sets {
		sets[i] = make(Set, Words(n))
		sets[i].Fill(rng.Perm(n)[:1+rng.Intn(20)], n)
	}
	m := New[result](n, 1<<10)
	for i, s := range sets {
		m.Put(s, result{float64(i), 0})
	}
	if allocs := testing.AllocsPerRun(20, func() {
		for _, s := range sets {
			if _, ok := m.Get(s); !ok {
				t.Fatal("stored set missed")
			}
		}
	}); allocs != 0 {
		t.Fatalf("hits allocate %v times per round, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		m.Reset(n, 1<<10)
		for i, s := range sets {
			m.Put(s, result{float64(i), 0})
		}
	}); allocs != 0 {
		t.Fatalf("inserts without growth allocate %v times per round, want 0", allocs)
	}
}
