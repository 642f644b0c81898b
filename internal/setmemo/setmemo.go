// Package setmemo memoizes values computed from sets of pool indices, the
// shape of an annealing search's jury evaluations: a set is a bitmask over
// the pool, keyed by a 64-bit hash and verified against the stored mask
// on every hit.
package setmemo

import (
	"math/bits"
	"slices"
)

// Set is a bitmask over pool indices: bit i%64 of word i/64 marks member
// i. Enumerating it yields the members in ascending order, which is the
// canonical order the estimators evaluate a jury in.
type Set []uint64

// Words is the length of a Set over a pool of n.
func Words(n int) int { return (n + 63) / 64 }

// Fill makes s the set of indices. It reports false, leaving s undefined,
// when an index lies outside [0, n) or repeats: such a list is not a set.
// s must have Words(n) words.
func (s Set) Fill(indices []int, n int) bool {
	clear(s)
	for _, i := range indices {
		if i < 0 || i >= n {
			return false
		}
		w, bit := i>>6, uint64(1)<<(i&63)
		if s[w]&bit != 0 {
			return false
		}
		s[w] |= bit
	}
	return true
}

// AppendMembers appends the members of s to dst in ascending order.
func (s Set) AppendMembers(dst []int) []int {
	for w, word := range s {
		for word != 0 {
			dst = append(dst, w<<6+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return dst
}

// hash keys a mask; tests swap it to force collisions.
var hash = hashWords

// hashWords chains the splitmix64 finalizer over the words: each step is
// a bijection of the running state and the next word.
func hashWords(s Set) uint64 {
	var h uint64
	for _, w := range s {
		h ^= w
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// Memo maps sets over one pool to values. Entries live in a flat arena of
// masks and values indexed by hash; every hit compares the stored mask,
// so a hash collision costs a recomputation, never another set's value.
// Get never allocates, and Put allocates only when the index or the arena
// grows. The zero Memo is empty and must be Reset before use. A Memo is
// not safe for concurrent use.
type Memo[V any] struct {
	words, limit int
	index        map[uint64]int32 // hash → entry
	masks        []uint64         // entry e's mask: masks[e*words : (e+1)*words]
	vals         []V
}

// New returns an empty memo for sets over a pool of n, holding at most
// limit entries.
func New[V any](n, limit int) *Memo[V] {
	m := new(Memo[V])
	m.Reset(n, limit)
	return m
}

// Reset empties m and points it at a pool of n, keeping its buffers.
func (m *Memo[V]) Reset(n, limit int) {
	m.words, m.limit = Words(n), limit
	clear(m.index)
	m.masks, m.vals = m.masks[:0], m.vals[:0]
}

// Len is the number of stored entries; a nil Memo has none.
func (m *Memo[V]) Len() int {
	if m == nil {
		return 0
	}
	return len(m.vals)
}

// Get returns the value stored for s.
func (m *Memo[V]) Get(s Set) (V, bool) {
	var zero V
	if len(m.vals) == 0 {
		return zero, false
	}
	e, ok := m.index[hash(s)]
	if !ok || !slices.Equal(m.masks[int(e)*m.words:][:m.words], s) {
		return zero, false
	}
	return m.vals[e], true
}

// Put stores v for s, unless m is full or another set holds s's hash.
func (m *Memo[V]) Put(s Set, v V) {
	if len(s) != m.words {
		panic("setmemo: mask length does not match the pool")
	}
	if len(m.vals) >= m.limit {
		return
	}
	h := hash(s)
	if _, ok := m.index[h]; ok {
		return
	}
	if m.index == nil {
		m.index = make(map[uint64]int32)
	}
	m.index[h] = int32(len(m.vals))
	m.masks = append(m.masks, s...)
	m.vals = append(m.vals, v)
}
