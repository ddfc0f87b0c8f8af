package rellearn

import (
	"fmt"
	"math/rand"
	"testing"

	"querylearn/internal/plan"
	"querylearn/internal/relational"
)

// Differential property tests: the interned/bitset consistency core must
// agree with the retained naive implementations on randomized universes
// (fixed seeds for reproducibility).

// randomUniverse builds two relations with kL/kR attributes, nL/nR tuples,
// values drawn from a small shared domain so agreement sets are non-trivial.
func randomUniverse(rng *rand.Rand, kL, kR, nL, nR, domain int) *Universe {
	mk := func(name, prefix string, k, n int) *relational.Relation {
		attrs := make([]string, k)
		for i := range attrs {
			attrs[i] = fmt.Sprintf("%s%d", prefix, i)
		}
		r := relational.MustNew(name, attrs...)
		for i := 0; i < n; i++ {
			row := make([]string, k)
			for j := range row {
				row[j] = fmt.Sprintf("v%d", rng.Intn(domain))
			}
			if err := r.Insert(row...); err != nil {
				panic(err)
			}
		}
		return r
	}
	return NewUniverse(mk("L", "a", kL, nL), mk("R", "b", kR, nR))
}

func TestDifferentialAgreeVsNaive(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		u := randomUniverse(rng, 1+rng.Intn(9), 1+rng.Intn(9), 1+rng.Intn(20), 1+rng.Intn(20), 4)
		for li := 0; li < u.Left.Len(); li++ {
			for ri := 0; ri < u.Right.Len(); ri++ {
				if !u.Agree(li, ri).Equal(u.agreeNaive(li, ri)) {
					t.Fatalf("seed %d: Agree(%d,%d) interned %v != naive %v",
						seed, li, ri, u.Agree(li, ri), u.agreeNaive(li, ri))
				}
			}
		}
	}
}

// semijoinWitnesses verifies a predicate against the examples from first
// principles: every positive left tuple has a right witness whose agreement
// set contains p, and no negative one does.
func semijoinWitnesses(u *Universe, exs []SemijoinExample, p PairSet) bool {
	for _, e := range exs {
		selected := false
		for j := 0; j < u.Right.Len(); j++ {
			if p.SubsetOf(u.Agree(e.Left, j)) {
				selected = true
				break
			}
		}
		if selected != e.Positive {
			return false
		}
	}
	return true
}

func TestDifferentialSemijoinConsistentVsNaive(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed * 13))
		// Mix of single-word (k*k <= 64) and multi-word (k*k > 64)
		// universes so both DFS variants are exercised.
		kL := 2 + rng.Intn(9)
		kR := 2 + rng.Intn(9)
		u := randomUniverse(rng, kL, kR, 4+rng.Intn(10), 4+rng.Intn(10), 3)
		var exs []SemijoinExample
		for i := 0; i < u.Left.Len(); i++ {
			exs = append(exs, SemijoinExample{Left: i, Positive: rng.Intn(2) == 0})
		}
		np, nok, nstats, nerr := SemijoinConsistentNaive(u, exs, 1<<22)

		// Unplanned fast path: bit-for-bit the naive search over interned
		// sets — identical predicate, identical node/prune counts.
		prev := plan.SetDisabled(true)
		fp, fok, fstats, ferr := SemijoinConsistent(u, exs, 1<<22)
		plan.SetDisabled(prev)
		if (ferr == nil) != (nerr == nil) {
			t.Fatalf("seed %d: err fast %v, naive %v", seed, ferr, nerr)
		}
		if fok != nok {
			t.Fatalf("seed %d (words=%d): decision fast %v != naive %v", seed, u.words, fok, nok)
		}
		if fok && !fp.Equal(np) {
			t.Fatalf("seed %d (words=%d): predicate fast %v != naive %v",
				seed, u.words, u.Decode(fp), u.Decode(np))
		}
		if fstats != nstats {
			t.Fatalf("seed %d (words=%d): stats fast %+v != naive %+v", seed, u.words, fstats, nstats)
		}

		// Planned path: the dynamic family order explores a different tree,
		// so the witness predicate may differ — the contract is the same
		// decision and a predicate the examples verify.
		pp, pok, _, perr := SemijoinConsistent(u, exs, 1<<22)
		if (perr == nil) != (nerr == nil) {
			t.Fatalf("seed %d: err planned %v, naive %v", seed, perr, nerr)
		}
		if pok != nok {
			t.Fatalf("seed %d (words=%d): decision planned %v != naive %v", seed, u.words, pok, nok)
		}
		if pok && !semijoinWitnesses(u, exs, pp) {
			t.Fatalf("seed %d (words=%d): planned predicate %v inconsistent with examples",
				seed, u.words, u.Decode(pp))
		}
	}
}

// Concurrent Agree calls on a shared universe must be safe: the lazy
// intern and row cache are mutex-guarded (run under -race).
func TestConcurrentAgreeOnSharedUniverse(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	u := randomUniverse(rng, 5, 5, 12, 12, 3)
	want := u.agreeNaive(3, 4)
	done := make(chan bool, 8)
	for w := 0; w < 8; w++ {
		go func() {
			ok := true
			for li := 0; li < u.Left.Len(); li++ {
				for ri := 0; ri < u.Right.Len(); ri++ {
					if u.Agree(li, ri) == nil {
						ok = false
					}
				}
			}
			done <- ok && u.Agree(3, 4).Equal(want)
		}()
	}
	for w := 0; w < 8; w++ {
		if !<-done {
			t.Fatal("concurrent Agree returned wrong set")
		}
	}
}
