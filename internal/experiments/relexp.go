package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"querylearn/internal/relational"
	"querylearn/internal/rellearn"
)

// RandomJoinInstance builds two relations with k attributes and n tuples
// over a small value domain (collisions make agreement sets interesting).
func RandomJoinInstance(seed int64, k, n, domain int) (*relational.Relation, *relational.Relation) {
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
			lrow[j] = fmt.Sprint(rng.Intn(domain))
			rrow[j] = fmt.Sprint(rng.Intn(domain))
		}
		_ = l.Insert(lrow...)
		_ = r.Insert(rrow...)
	}
	return l, r
}

// T6ConsistencyJoinVsSemijoin contrasts the PTIME join consistency check
// with the exponential semijoin search as the attribute count grows.
func T6ConsistencyJoinVsSemijoin(scale int) *Table {
	t := &Table{
		ID:     "T6",
		Title:  "consistency checking: natural join (PTIME) vs semijoin (NP-complete)",
		Claim:  "\"we have proved the tractability of [...] testing consistency [...] for natural joins, a problem which is intractable in the context of semijoins\" (§3)",
		Header: []string{"attrs", "tuples", "join time", "semijoin time", "semijoin nodes"},
	}
	ks := []int{4, 6, 8, 10}
	if scale > 1 {
		ks = append(ks, 12)
	}
	trials := 15
	for _, k := range ks {
		n := 16
		var worstNodes int
		var worstSemi, joinTotal time.Duration
		budgetHit := false
		for trial := 0; trial < trials; trial++ {
			l, r := RandomJoinInstance(int64(k)*7+int64(trial), k, n, 2)
			u := rellearn.NewUniverse(l, r)
			rng := rand.New(rand.NewSource(int64(k + trial)))
			var joinExs []rellearn.JoinExample
			for i := 0; i < 8; i++ {
				joinExs = append(joinExs, rellearn.JoinExample{
					Left:     rng.Intn(l.Len()),
					Right:    rng.Intn(r.Len()),
					Positive: rng.Intn(2) == 0,
				})
			}
			start := time.Now()
			_, _ = rellearn.JoinConsistent(u, joinExs)
			joinTotal += time.Since(start)

			var semiExs []rellearn.SemijoinExample
			for i := 0; i < l.Len(); i++ {
				semiExs = append(semiExs, rellearn.SemijoinExample{Left: i, Positive: rng.Intn(2) == 0})
			}
			start = time.Now()
			_, _, stats, err := rellearn.SemijoinConsistent(u, semiExs, 1<<22)
			if d := time.Since(start); d > worstSemi {
				worstSemi = d
			}
			if stats.NodesExplored > worstNodes {
				worstNodes = stats.NodesExplored
			}
			if err != nil {
				budgetHit = true
			}
		}
		nodes := fmt.Sprint(worstNodes)
		if budgetHit {
			nodes += " (budget hit)"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(k), fmt.Sprint(n),
			(joinTotal / time.Duration(trials)).String(),
			worstSemi.String(), nodes,
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("join column: mean over %d random instances; semijoin columns: worst case over the same instances", trials))
	t.Notes = append(t.Notes,
		"join consistency is one intersection plus subset tests; the semijoin search explores witness combinations and its node count grows with the instance")
	return t
}

// T7Interactions measures user interactions by question order and instance
// size, with the uninformative-pruning ratio. Every dialogue runs on the
// served join learner; first is the order the daemon serves.
func T7Interactions(scale int) *Table {
	t := &Table{
		ID:     "T7",
		Title:  "interactive join learning: questions asked by strategy",
		Claim:  "\"the interactive process stops when all the tuples [...] have become uninformative. The goal is to minimize the number of interactions with the user.\" (§3)",
		Header: []string{"tuples/side", "pairs", "strategy", "questions", "pruned", "pruned %"},
	}
	sizes := []int{10, 20, 40}
	if scale > 1 {
		sizes = append(sizes, 80)
	}
	for _, n := range sizes {
		l, r := RandomJoinInstance(int64(n)*3, 4, n, 3)
		u := rellearn.NewUniverse(l, r)
		goal, err := u.Encode([]relational.AttrPair{
			{Left: "a0", Right: "b0"}, {Left: "a1", Right: "b1"},
		})
		if err != nil {
			continue
		}
		task, pairs := JoinTask(l, r), l.Len()*r.Len()
		orders := []struct {
			name string
			pick Picker
		}{
			{"first", nil},
			{"random", RandomPicker(rand.New(rand.NewSource(int64(n))))},
			{"max-agree", MaxAgreePicker(u)},
			{"half-split", HalfSplitPicker(u)},
		}
		for _, o := range orders {
			res, err := Dialogue{Model: "join", Task: task, Pick: o.pick, Vote: JoinOracle(u, goal)}.Run()
			if err != nil || res.Failed {
				continue
			}
			pruned := pairs - res.Questions
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(n), fmt.Sprint(pairs), o.name,
				fmt.Sprint(res.Questions), fmt.Sprint(pruned),
				fmt.Sprintf("%.1f%%", 100*float64(pruned)/float64(pairs)),
			})
		}
	}
	return t
}

// T9CrowdCost prices interactive join dialogues under the HIT model: the
// manager charges one HIT per submitted label.
func T9CrowdCost(scale int) *Table {
	t := &Table{
		ID:     "T9",
		Title:  "crowdsourced join learning: dollar cost per strategy and vote count",
		Claim:  "\"minimizing the number of interactions with the user is equivalent to minimizing the financial cost of the process\" (§3, after Marcus et al.)",
		Header: []string{"strategy", "votes", "error rate", "avg questions", "avg HITs", "avg cost $", "success"},
	}
	n := 15 * scale
	l, r := RandomJoinInstance(99, 4, n, 3)
	u := rellearn.NewUniverse(l, r)
	goal, err := u.Encode([]relational.AttrPair{{Left: "a0", Right: "b0"}})
	if err != nil {
		return t
	}
	// One random picker serves every run of its row, so its draws continue
	// from run to run; the join pickers track one dialogue each.
	random := RandomPicker(rand.New(rand.NewSource(1)))
	cases := []struct {
		name   string
		picker func() Picker
		votes  int
		errR   float64
	}{
		{"first", func() Picker { return nil }, 1, 0},
		{"random", func() Picker { return random }, 1, 0},
		{"max-agree", func() Picker { return MaxAgreePicker(u) }, 1, 0},
		{"max-agree", func() Picker { return MaxAgreePicker(u) }, 1, 0.15},
		{"max-agree", func() Picker { return MaxAgreePicker(u) }, 5, 0.15},
		{"max-agree", func() Picker { return MaxAgreePicker(u) }, 9, 0.25},
	}
	const seeds = 10
	task := JoinTask(l, r)
	for _, c := range cases {
		var qSum, hitSum int
		var costSum float64
		success := 0
		for s := int64(0); s < seeds; s++ {
			res, err := Dialogue{
				Model: "join", Task: task, Pick: c.picker(),
				Vote:  NoisyOracle(JoinOracle(u, goal), c.errR, rand.New(rand.NewSource(7+s))),
				Votes: c.votes, CostPerHIT: 0.05,
			}.Run()
			if err != nil {
				continue
			}
			qSum += res.Questions
			hitSum += res.HITs
			costSum += res.Cost
			if acc, err := JoinAccuracy(u, goal, res.Hypothesis); err == nil && !res.Failed && acc == 1.0 {
				success++
			}
		}
		t.Rows = append(t.Rows, []string{
			c.name, fmt.Sprint(c.votes), fmt.Sprintf("%.0f%%", 100*c.errR),
			fmt.Sprintf("%.1f", float64(qSum)/seeds), fmt.Sprintf("%.1f", float64(hitSum)/seeds),
			fmt.Sprintf("%.2f", costSum/seeds), fmt.Sprintf("%d/%d", success, seeds),
		})
	}
	t.Notes = append(t.Notes,
		"success = runs ending with a predicate labeling the whole instance exactly like the goal",
		"every run asks through session.Manager, which charges one HIT per submitted label and nothing for a batch it rejects as inconsistent; a batch answers one informative pair, so no run here is rejected")
	return t
}
