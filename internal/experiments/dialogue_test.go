package experiments

import (
	"encoding/json"
	"errors"
	"testing"

	"querylearn/internal/relational"
	"querylearn/internal/rellearn"
	"querylearn/internal/session"
)

func joinGoal(t *testing.T) (*rellearn.Universe, string, rellearn.PairSet) {
	t.Helper()
	l, r := RandomJoinInstance(5, 3, 10, 3)
	u := rellearn.NewUniverse(l, r)
	goal, err := u.Encode([]relational.AttrPair{{Left: "a0", Right: "b0"}})
	if err != nil {
		t.Fatal(err)
	}
	return u, JoinTask(l, r), goal
}

// The manager charges one HIT per submitted label: a noise-free dialogue
// pays votes × questions HITs at the HIT price, and learns the goal.
func TestDialogueChargesEveryVote(t *testing.T) {
	u, task, goal := joinGoal(t)
	for _, votes := range []int{1, 5} {
		res, err := Dialogue{
			Model: "join", Task: task, Pick: MaxAgreePicker(u), Vote: JoinOracle(u, goal),
			Votes: votes, CostPerHIT: 0.05,
		}.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed || res.Questions == 0 {
			t.Fatalf("%d votes: %+v", votes, res)
		}
		if res.HITs != votes*res.Questions {
			t.Errorf("%d votes: %d HITs for %d questions", votes, res.HITs, res.Questions)
		}
		if want := float64(res.HITs) * 0.05; res.Cost != want {
			t.Errorf("%d votes: cost %v, want %v", votes, res.Cost, want)
		}
		if acc, err := JoinAccuracy(u, goal, res.Hypothesis); err != nil || acc != 1 {
			t.Errorf("%d votes: learned %q, accuracy %v (%v)", votes, res.Hypothesis.Query, acc, err)
		}
	}
}

// An even panel could tie, which the manager rejects, so Dialogue refuses
// it before creating a session.
func TestDialogueRejectsEvenVotes(t *testing.T) {
	u, task, goal := joinGoal(t)
	if _, err := (Dialogue{Model: "join", Task: task, Vote: JoinOracle(u, goal), Votes: 2}).Run(); err == nil {
		t.Fatal("two votes per question must be refused")
	}
}

// A worker who never answers stops the dialogue with the oracle's error; the
// batch is never submitted, so nothing is charged for it.
func TestDialogueSurfacesOracleFailure(t *testing.T) {
	u, task, goal := joinGoal(t)
	unavailable := errors.New("worker timed out")
	calls := 0
	vote := func(item json.RawMessage) (bool, error) {
		if calls++; calls == 4 {
			return false, unavailable
		}
		return JoinOracle(u, goal)(item)
	}
	if _, err := (Dialogue{Model: "join", Task: task, Vote: vote, Votes: 3}).Run(); !errors.Is(err, unavailable) {
		t.Fatalf("Run = %v, want the oracle's error", err)
	}
}

// A join picker checks its Pmax against the hypothesis the session serves:
// after a negative verdict Pmax is still every attribute pair, not "true".
func TestJoinPickerChecksServedHypothesis(t *testing.T) {
	u, _, _ := joinGoal(t)
	p := MaxAgreePicker(u)
	verdict := session.Answer{Item: json.RawMessage(`{"left":0,"right":0}`), Positive: false}
	if err := p.Applied(verdict, session.Hypothesis{Query: "true"}); err == nil {
		t.Fatal("a served hypothesis other than the tracked Pmax must be reported")
	}
}
