package bitset

import (
	"math/rand"
	"testing"
)

// members lists the set bits in ascending order.
func members(s *Set) []int {
	var out []int
	for i := 0; i < s.Cap(); i++ {
		if s.Has(i) {
			out = append(out, i)
		}
	}
	return out
}

func TestBasicOps(t *testing.T) {
	s := New(130)
	if s.Cap() != 130 || len(members(s)) != 0 {
		t.Fatalf("fresh set: cap=%d members=%v", s.Cap(), members(s))
	}
	want := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, i := range want {
		s.Add(i)
	}
	s.Add(64) // idempotent
	if !s.Has(129) || s.Has(2) {
		t.Fatal("Has wrong")
	}
	got := members(s)
	if len(got) != len(want) {
		t.Fatalf("members = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("members = %v, want %v", got, want)
		}
	}
}

func TestGrow(t *testing.T) {
	for _, c := range []struct{ from, to int }{{0, 1}, {10, 70}, {64, 64}, {64, 65}, {130, 5000}, {100, 50}} {
		s := New(c.from)
		for i := 0; i < c.from; i += 7 {
			s.Add(i)
		}
		before := members(s)
		s.Grow(c.to)
		wantCap := c.to
		if wantCap < c.from {
			wantCap = c.from // shrinking is a no-op
		}
		if s.Cap() != wantCap {
			t.Fatalf("Grow(%d) from %d: cap = %d, want %d", c.to, c.from, s.Cap(), wantCap)
		}
		after := members(s)
		if len(before) != len(after) {
			t.Fatalf("Grow changed contents: %v -> %v", before, after)
		}
		for i := range before {
			if before[i] != after[i] {
				t.Fatalf("Grow changed contents: %v -> %v", before, after)
			}
		}
		if wantCap > 0 {
			s.Add(wantCap - 1) // the new top bit must be addressable
			if !s.Has(wantCap - 1) {
				t.Fatal("new capacity not addressable")
			}
		}
	}
}

// Differential check against a map-backed model under random operations.
func TestRandomizedVsMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 300
	s := New(n)
	model := map[int]bool{}
	for step := 0; step < 5000; step++ {
		i := rng.Intn(n)
		if rng.Intn(2) == 0 {
			s.Add(i)
			model[i] = true
		} else if s.Has(i) != model[i] {
			t.Fatalf("step %d: Has(%d) = %v, model %v", step, i, s.Has(i), model[i])
		}
	}
	got := members(s)
	if len(got) != len(model) {
		t.Fatalf("%d members, model %d", len(got), len(model))
	}
	for _, i := range got {
		if !model[i] {
			t.Fatalf("member %d not in model", i)
		}
	}
}
