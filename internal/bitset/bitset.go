// Package bitset provides dense fixed-capacity bit sets over []uint64
// words — the membership sets of the interned-ID evaluation core: the BFS
// visited set in internal/graph and the candidate selection sets in
// internal/graphlearn.
package bitset

// Set is a dense bit set with fixed capacity. The zero value is an empty
// set of capacity 0; construct with New.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set with capacity for bits 0..n-1.
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+63)/64), n: n}
}

// Cap returns the capacity in bits.
func (s *Set) Cap() int { return s.n }

// Add inserts bit i.
func (s *Set) Add(i int) { s.words[i>>6] |= 1 << (uint(i) & 63) }

// Has reports membership of bit i.
func (s *Set) Has(i int) bool { return s.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Grow extends the capacity to n bits, preserving contents; a no-op when n
// does not exceed the current capacity. It exists for the sparse interned
// universes of internal/graphlearn, whose pair space can gain a late slot
// when an answer names a pair outside the initial pool.
func (s *Set) Grow(n int) {
	if n <= s.n {
		return
	}
	if w := (n + 63) / 64; w > len(s.words) {
		words := make([]uint64, w)
		copy(words, s.words)
		s.words = words
	}
	s.n = n
}
