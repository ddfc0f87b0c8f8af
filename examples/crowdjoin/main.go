// crowdjoin prices interactive join learning under the crowdsourcing model
// of §3 (after Marcus et al.): every question is a paid Human Intelligence
// Task, workers err, and majority voting buys reliability with money. The
// dialogues run in process on the session manager the daemon serves, which
// charges one HIT per submitted label; the question order translates
// directly into dollars. It exits non-zero when a noise-free dialogue does
// not learn the goal.
//
//	go run ./examples/crowdjoin
package main

import (
	"fmt"
	"log"
	"math/rand"

	"querylearn/internal/experiments"
	"querylearn/internal/relational"
	"querylearn/internal/rellearn"
)

func main() {
	// Two product catalogs to be matched by the crowd.
	rng := rand.New(rand.NewSource(5))
	left := relational.MustNew("catalogA", "sku", "brand", "color")
	right := relational.MustNew("catalogB", "code", "maker", "shade")
	brands := []string{"acme", "globex", "initech"}
	colors := []string{"red", "blue", "green"}
	for i := 0; i < 12; i++ {
		sku := fmt.Sprintf("s%d", i%8)
		if err := left.Insert(sku, brands[rng.Intn(3)], colors[rng.Intn(3)]); err != nil {
			log.Fatal(err)
		}
		if err := right.Insert(fmt.Sprintf("s%d", rng.Intn(8)), brands[rng.Intn(3)], colors[rng.Intn(3)]); err != nil {
			log.Fatal(err)
		}
	}
	u := rellearn.NewUniverse(left, right)
	goal, err := u.Encode([]relational.AttrPair{{Left: "sku", Right: "code"}})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("instance: %d x %d tuples = %d candidate pairs\n",
		left.Len(), right.Len(), left.Len()*right.Len())
	fmt.Println("goal (hidden from the crowd): sku=code")
	fmt.Println()
	fmt.Printf("%-10s %-6s %-6s %-10s %-8s %-8s\n",
		"strategy", "votes", "error", "questions", "cost $", "exact?")

	configs := []struct {
		name  string
		pick  experiments.Picker
		votes int
		errR  float64
	}{
		{"first", nil, 1, 0},
		{"random", experiments.RandomPicker(rand.New(rand.NewSource(1))), 1, 0},
		{"max-agree", experiments.MaxAgreePicker(u), 1, 0},
		{"max-agree", experiments.MaxAgreePicker(u), 1, 0.2},
		{"max-agree", experiments.MaxAgreePicker(u), 5, 0.2},
	}
	for _, c := range configs {
		res, err := experiments.Dialogue{
			Model: "join", Task: experiments.JoinTask(left, right), Pick: c.pick,
			Vote:  experiments.NoisyOracle(experiments.JoinOracle(u, goal), c.errR, rand.New(rand.NewSource(9))),
			Votes: c.votes, CostPerHIT: 0.05,
		}.Run()
		if err != nil {
			log.Fatal(err)
		}
		acc, err := experiments.JoinAccuracy(u, goal, res.Hypothesis)
		if err != nil {
			log.Fatal(err)
		}
		exact := "yes"
		if res.Failed {
			exact = "failed"
		} else if acc < 1 {
			exact = fmt.Sprintf("%.0f%%", 100*acc)
		}
		fmt.Printf("%-10s %-6d %-6.0f %-10d %-8.2f %-8s\n",
			c.name, c.votes, 100*c.errR, res.Questions, res.Cost, exact)
		if c.errR == 0 && exact != "yes" {
			log.Fatalf("%s: a noise-free dialogue learned %q, not the goal", c.name, res.Hypothesis.Query)
		}
	}
	fmt.Println("\nmajority voting multiplies HITs per question; the smart strategy")
	fmt.Println("keeps the question count (and thus the bill) low either way.")
}
