package rellearn

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"querylearn/internal/relational"
)

// twoRelations builds the running example: persons and orders sharing ids
// and cities.
func twoRelations(t *testing.T) (*relational.Relation, *relational.Relation) {
	t.Helper()
	l, err := relational.FromRows("P", []string{"pid", "city"}, [][]string{
		{"1", "lille"},
		{"2", "paris"},
		{"3", "lille"},
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := relational.FromRows("O", []string{"oid", "buyer", "place"}, [][]string{
		{"o1", "1", "lille"},
		{"o2", "2", "lille"},
		{"o3", "3", "rome"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, r
}

func TestUniverse(t *testing.T) {
	l, r := twoRelations(t)
	u := NewUniverse(l, r)
	if u.Size() != 6 {
		t.Errorf("universe size = %d, want 6", u.Size())
	}
	full := u.Full()
	if full.Count() != 6 {
		t.Errorf("full count = %d", full.Count())
	}
	if u.EmptySet().Count() != 0 {
		t.Errorf("empty not empty")
	}
}

func TestPairSetOps(t *testing.T) {
	l, r := twoRelations(t)
	u := NewUniverse(l, r)
	a := u.EmptySet().With(0).With(3)
	b := u.EmptySet().With(0)
	if !b.SubsetOf(a) || a.SubsetOf(b) {
		t.Errorf("subset relation wrong")
	}
	if !a.Intersect(b).Equal(b) {
		t.Errorf("intersect wrong")
	}
	if a.Key() == b.Key() {
		t.Errorf("keys must differ")
	}
	if !a.Has(3) || a.Has(1) {
		t.Errorf("Has wrong")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	l, r := twoRelations(t)
	u := NewUniverse(l, r)
	pairs := []relational.AttrPair{{Left: "pid", Right: "buyer"}, {Left: "city", Right: "place"}}
	s, err := u.Encode(pairs)
	if err != nil {
		t.Fatal(err)
	}
	got := u.Decode(s)
	if len(got) != 2 || got[0] != pairs[1] && got[0] != pairs[0] {
		t.Errorf("Decode = %v", got)
	}
	if _, err := u.Encode([]relational.AttrPair{{Left: "zz", Right: "zz"}}); err == nil {
		t.Errorf("unknown pair should fail")
	}
}

func TestAgree(t *testing.T) {
	l, r := twoRelations(t)
	u := NewUniverse(l, r)
	// P(1,lille) vs O(o1,1,lille): pid=buyer and city=place agree.
	a := u.Agree(0, 0)
	want, _ := u.Encode([]relational.AttrPair{
		{Left: "pid", Right: "buyer"}, {Left: "city", Right: "place"}})
	if !a.Equal(want) {
		t.Errorf("Agree = %v, want %v", u.Decode(a), u.Decode(want))
	}
}

func TestJoinConsistentPositiveOnly(t *testing.T) {
	l, r := twoRelations(t)
	u := NewUniverse(l, r)
	// Goal: pid=buyer. Positives: (0,0), (1,1)? P(2,paris) vs O(o2,2,lille):
	// pid=buyer agrees, city=place does not.
	exs := []JoinExample{
		{Left: 0, Right: 0, Positive: true},
		{Left: 1, Right: 1, Positive: true},
	}
	p, ok := JoinConsistent(u, exs)
	if !ok {
		t.Fatal("should be consistent")
	}
	got := u.Decode(p)
	if len(got) != 1 || (got[0] != relational.AttrPair{Left: "pid", Right: "buyer"}) {
		t.Errorf("most specific join = %v, want pid=buyer", got)
	}
}

func TestJoinConsistentWithNegatives(t *testing.T) {
	l, r := twoRelations(t)
	u := NewUniverse(l, r)
	exs := []JoinExample{
		{Left: 0, Right: 0, Positive: true},
		{Left: 1, Right: 1, Positive: true},
		{Left: 2, Right: 2, Positive: false}, // P(3,lille)/O(o3,3,rome): pid=buyer agrees!
	}
	if _, ok := JoinConsistent(u, exs); ok {
		t.Errorf("negative with superset agreement must be inconsistent")
	}
	// Replace the negative with one that disagrees on pid=buyer.
	exs[2] = JoinExample{Left: 0, Right: 1, Positive: false}
	p, ok := JoinConsistent(u, exs)
	if !ok {
		t.Fatalf("should be consistent")
	}
	if got := u.Decode(p); len(got) != 1 {
		t.Errorf("predicate = %v", got)
	}
}

func TestSemijoinConsistentBasic(t *testing.T) {
	l, r := twoRelations(t)
	u := NewUniverse(l, r)
	// Semijoin on pid=buyer selects all three left tuples; on city=place
	// selects P1 (lille has orders o1... place lille from o1,o2) and P3.
	exs := []SemijoinExample{
		{Left: 0, Positive: true},
		{Left: 1, Positive: false},
	}
	p, ok, _, err := SemijoinConsistent(u, exs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("expected consistent semijoin")
	}
	// Verify semantics: P0 has a witness, P1 has none.
	sel := func(li int) bool {
		for j := 0; j < r.Len(); j++ {
			if p.SubsetOf(u.Agree(li, j)) {
				return true
			}
		}
		return false
	}
	if !sel(0) || sel(1) {
		t.Errorf("predicate %v selects wrong tuples", u.Decode(p))
	}
}

func TestSemijoinInconsistent(t *testing.T) {
	// Identical left tuples with opposite labels can never be separated.
	l, _ := relational.FromRows("L", []string{"a"}, [][]string{{"1"}, {"1"}})
	r, _ := relational.FromRows("R", []string{"b"}, [][]string{{"1"}})
	u := NewUniverse(l, r)
	exs := []SemijoinExample{
		{Left: 0, Positive: true},
		{Left: 1, Positive: false},
	}
	_, ok, _, err := SemijoinConsistent(u, exs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Errorf("identical tuples with opposite labels must be inconsistent")
	}
}

func TestSemijoinGreedyCanMissExactFinds(t *testing.T) {
	// Construct a case where the greedy witness choice (largest
	// intersection first) walks into inconsistency while backtracking
	// succeeds. Positive tuple t has two witnesses: w1 with a large
	// agreement (but whose intersection is forbidden by a negative) and
	// w2 with a smaller, safe agreement.
	l, _ := relational.FromRows("L", []string{"a", "b", "c"}, [][]string{
		{"x", "y", "z"}, // positive
		{"x", "y", "q"}, // negative
	})
	r, _ := relational.FromRows("R", []string{"a", "b", "c"}, [][]string{
		{"x", "y", "w"}, // big agreement with positive on a,b — shared with the negative
		{"p", "p", "z"}, // small agreement with positive on c only — safe
	})
	u := NewUniverse(l, r)
	exs := []SemijoinExample{
		{Left: 0, Positive: true},
		{Left: 1, Positive: false},
	}
	_, okExact, _, err := SemijoinConsistent(u, exs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !okExact {
		t.Fatalf("exact search should find c=c")
	}
	_, okGreedy := SemijoinGreedy(u, exs)
	if okGreedy {
		t.Logf("greedy also succeeded here (acceptable; exact is the reference)")
	}
}

// converge answers the session's informative pairs by the goal predicate
// until none is left, asking the pair pick chooses among them (nil asks the
// first), and returns the number of questions asked.
func converge(t *testing.T, s *Session, goal PairSet, pick func(n int) int) int {
	t.Helper()
	for asked := 0; ; asked++ {
		cands, _ := s.CandidatesLimited(0)
		if len(cands) == 0 {
			return asked
		}
		c := cands[0]
		if pick != nil {
			c = cands[pick(len(cands))]
		}
		if err := s.Record(c.Left, c.Right, goal.SubsetOf(s.U.Agree(c.Left, c.Right))); err != nil {
			t.Fatalf("Record(%d, %d): %v", c.Left, c.Right, err)
		}
	}
}

// sameOnInstance reports whether two predicates select the same tuple pairs.
func sameOnInstance(u *Universe, p, q PairSet) bool {
	for li := 0; li < u.Left.Len(); li++ {
		for ri := 0; ri < u.Right.Len(); ri++ {
			if a := u.Agree(li, ri); p.SubsetOf(a) != q.SubsetOf(a) {
				return false
			}
		}
	}
	return true
}

func TestInteractiveIdentifiesGoal(t *testing.T) {
	l, r := twoRelations(t)
	u := NewUniverse(l, r)
	goal, err := u.Encode([]relational.AttrPair{{Left: "pid", Right: "buyer"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range []struct {
		name string
		pick func(int) int
	}{{"first", nil}, {"random", rand.New(rand.NewSource(1)).Intn}} {
		s := NewSession(u)
		asked := converge(t, s, goal, order.pick)
		// The learned most specific predicate must select exactly the
		// same pairs as the goal.
		if !sameOnInstance(u, goal, s.Result()) {
			t.Errorf("%s: learned %v disagrees with goal", order.name, u.Decode(s.Result()))
		}
		if asked > l.Len()*r.Len() {
			t.Errorf("%s: asked %d questions over %d pairs", order.name, asked, l.Len()*r.Len())
		}
	}
}

func TestInteractivePruningHelps(t *testing.T) {
	// On a larger instance the dialogue must ask far fewer questions than
	// there are pairs.
	rng := rand.New(rand.NewSource(7))
	l := relational.MustNew("L", "a", "b", "c")
	r := relational.MustNew("R", "x", "y", "z")
	for i := 0; i < 20; i++ {
		_ = l.Insert(fmt.Sprint(rng.Intn(4)), fmt.Sprint(rng.Intn(4)), fmt.Sprint(rng.Intn(4)))
		_ = r.Insert(fmt.Sprint(rng.Intn(4)), fmt.Sprint(rng.Intn(4)), fmt.Sprint(rng.Intn(4)))
	}
	u := NewUniverse(l, r)
	goal, _ := u.Encode([]relational.AttrPair{{Left: "a", Right: "x"}, {Left: "b", Right: "y"}})
	if asked, total := converge(t, NewSession(u), goal, nil), l.Len()*r.Len(); asked >= total/2 {
		t.Errorf("asked %d of %d pairs; pruning ineffective", asked, total)
	}
}

func TestSessionInconsistentAnswers(t *testing.T) {
	l, r := twoRelations(t)
	u := NewUniverse(l, r)
	s := NewSession(u)
	if err := s.Record(0, 0, true); err != nil {
		t.Fatal(err)
	}
	// Same-agreement pair labeled negative: contradiction.
	if err := s.Record(0, 0, false); err == nil {
		t.Errorf("contradictory answers must error")
	}
}

func TestChainLearning(t *testing.T) {
	a, _ := relational.FromRows("A", []string{"x", "y"}, [][]string{
		{"1", "p"}, {"2", "q"},
	})
	b, _ := relational.FromRows("B", []string{"u", "v"}, [][]string{
		{"p", "m"}, {"q", "n"},
	})
	c, _ := relational.FromRows("C", []string{"w"}, [][]string{
		{"m"}, {"n"},
	})
	cu, err := NewChainUniverse([]*relational.Relation{a, b, c})
	if err != nil {
		t.Fatal(err)
	}
	exs := []ChainExample{
		{Tuples: []int{0, 0, 0}, Positive: true}, // 1,p | p,m | m : chains match
		{Tuples: []int{1, 1, 1}, Positive: true}, // 2,q | q,n | n
		{Tuples: []int{0, 1, 0}, Positive: false},
	}
	p, ok, err := cu.ChainConsistent(exs)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("chain should be consistent")
	}
	steps := cu.Decode(p)
	if len(steps) != 2 {
		t.Fatalf("steps = %v", steps)
	}
	// Step 0 must include y=u; step 1 must include v=w.
	has := func(ps []relational.AttrPair, want relational.AttrPair) bool {
		for _, q := range ps {
			if q == want {
				return true
			}
		}
		return false
	}
	if !has(steps[0], relational.AttrPair{Left: "y", Right: "u"}) {
		t.Errorf("step 0 = %v, want y=u", steps[0])
	}
	if !has(steps[1], relational.AttrPair{Left: "v", Right: "w"}) {
		t.Errorf("step 1 = %v, want v=w", steps[1])
	}
	if !cu.Selects(p, []int{0, 0, 0}) || cu.Selects(p, []int{0, 1, 0}) {
		t.Errorf("learned chain selects wrong vectors")
	}
}

func TestChainValidation(t *testing.T) {
	a := relational.MustNew("A", "x")
	if _, err := NewChainUniverse([]*relational.Relation{a}); err == nil {
		t.Errorf("single-relation chain should fail")
	}
	b := relational.MustNew("B", "y")
	cu, _ := NewChainUniverse([]*relational.Relation{a, b})
	if _, _, err := cu.ChainConsistent([]ChainExample{{Tuples: []int{0}, Positive: true}}); err == nil {
		t.Errorf("wrong-arity example should fail")
	}
}

// --- property tests ---

// randomInstance builds deterministic random relations with k attributes
// and n tuples over a small value domain.
func randomInstance(seed int64, k, n int) (*relational.Relation, *relational.Relation) {
	rng := rand.New(rand.NewSource(seed))
	lAttrs := make([]string, k)
	rAttrs := make([]string, k)
	for i := range lAttrs {
		lAttrs[i] = fmt.Sprintf("a%d", i)
		rAttrs[i] = fmt.Sprintf("b%d", i)
	}
	l := relational.MustNew("L", lAttrs...)
	r := relational.MustNew("R", rAttrs...)
	for i := 0; i < n; i++ {
		lrow := make([]string, k)
		rrow := make([]string, k)
		for j := range lrow {
			lrow[j] = fmt.Sprint(rng.Intn(3))
			rrow[j] = fmt.Sprint(rng.Intn(3))
		}
		_ = l.Insert(lrow...)
		_ = r.Insert(rrow...)
	}
	return l, r
}

func TestQuickJoinConsistencyExact(t *testing.T) {
	// JoinConsistent must agree with brute force over all 2^|U|
	// predicates on tiny universes.
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		l, r := randomInstance(seed, 2, 3)
		u := NewUniverse(l, r)
		rng := rand.New(rand.NewSource(seed + 1))
		var exs []JoinExample
		for i := 0; i < 4; i++ {
			exs = append(exs, JoinExample{
				Left:     rng.Intn(l.Len()),
				Right:    rng.Intn(r.Len()),
				Positive: rng.Intn(2) == 0,
			})
		}
		_, got := JoinConsistent(u, exs)
		// Brute force over all predicates.
		want := false
		for mask := 0; mask < 1<<u.Size(); mask++ {
			p := u.EmptySet()
			for i := 0; i < u.Size(); i++ {
				if mask&(1<<i) != 0 {
					p = p.With(i)
				}
			}
			ok := true
			for _, e := range exs {
				if p.SubsetOf(u.Agree(e.Left, e.Right)) != e.Positive {
					ok = false
					break
				}
			}
			if ok {
				want = true
				break
			}
		}
		if got != want {
			t.Logf("seed %d: got %v want %v", seed, got, want)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickSemijoinExactMatchesBrute(t *testing.T) {
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		l, r := randomInstance(seed, 2, 3)
		u := NewUniverse(l, r)
		rng := rand.New(rand.NewSource(seed + 2))
		var exs []SemijoinExample
		for i := 0; i < l.Len(); i++ {
			exs = append(exs, SemijoinExample{Left: i, Positive: rng.Intn(2) == 0})
		}
		_, got, _, err := SemijoinConsistent(u, exs, 0)
		if err != nil {
			return false
		}
		want := false
		for mask := 0; mask < 1<<u.Size(); mask++ {
			p := u.EmptySet()
			for i := 0; i < u.Size(); i++ {
				if mask&(1<<i) != 0 {
					p = p.With(i)
				}
			}
			ok := true
			for _, e := range exs {
				selected := false
				for j := 0; j < r.Len(); j++ {
					if p.SubsetOf(u.Agree(e.Left, j)) {
						selected = true
						break
					}
				}
				if selected != e.Positive {
					ok = false
					break
				}
			}
			if ok {
				want = true
				break
			}
		}
		if got != want {
			t.Logf("seed %d: got %v want %v", seed, got, want)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickGreedySoundness(t *testing.T) {
	// Whenever greedy claims consistency, its predicate really is
	// consistent.
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		l, r := randomInstance(seed, 3, 4)
		u := NewUniverse(l, r)
		rng := rand.New(rand.NewSource(seed + 3))
		var exs []SemijoinExample
		for i := 0; i < l.Len(); i++ {
			exs = append(exs, SemijoinExample{Left: i, Positive: rng.Intn(2) == 0})
		}
		p, ok := SemijoinGreedy(u, exs)
		if !ok {
			return true
		}
		for _, e := range exs {
			selected := false
			for j := 0; j < r.Len(); j++ {
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
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickInteractiveAlwaysIdentifies(t *testing.T) {
	// For any goal predicate, the interactive loop ends with a predicate
	// equivalent to the goal on the instance.
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		l, r := randomInstance(seed, 2, 4)
		u := NewUniverse(l, r)
		rng := rand.New(rand.NewSource(seed + 4))
		goal := u.EmptySet()
		for i := 0; i < u.Size(); i++ {
			if rng.Intn(3) == 0 {
				goal = goal.With(i)
			}
		}
		s := NewSession(u)
		converge(t, s, goal, nil)
		return sameOnInstance(u, goal, s.Result())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
