package session

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// compactSnapshots returns n answerless snapshots of the test tasks with
// distinct ids, created in bursts of four that share a timestamp, in
// shuffled order.
func compactSnapshots(n int) []Snapshot {
	base := time.Unix(1000, 0).UTC()
	snaps := make([]Snapshot, n)
	for i := range snaps {
		model := Models[i%len(Models)]
		snaps[i] = Snapshot{
			ID:        fmt.Sprintf("s%06d", (i*7919)%n),
			Model:     model,
			Task:      tasks()[model],
			CreatedAt: base.Add(time.Duration(i/4) * time.Millisecond),
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { snaps[i], snaps[j] = snaps[j], snaps[i] })
	return snaps
}

// Compact hands the journal every live session oldest first, ties in
// creation time broken by id.
func TestCompactOrdersOldestFirst(t *testing.T) {
	j := &recordingJournal{}
	m := NewManager(Config{Journal: j})
	snaps := compactSnapshots(200)
	if n, err := m.Recover(snaps); n != len(snaps) || err != nil {
		t.Fatalf("Recover = %d, %v", n, err)
	}
	if n, err := m.Compact(); n != len(snaps) || err != nil {
		t.Fatalf("Compact = %d, %v", n, err)
	}
	if len(j.compacted) != len(snaps) {
		t.Fatalf("%d snapshots compacted, want %d", len(j.compacted), len(snaps))
	}
	for i := 1; i < len(j.compacted); i++ {
		a, b := j.compacted[i-1], j.compacted[i]
		if a.CreatedAt.After(b.CreatedAt) || (a.CreatedAt.Equal(b.CreatedAt) && a.ID >= b.ID) {
			t.Fatalf("compacted %d (%s, %v) before %d (%s, %v)", i-1, a.ID, a.CreatedAt, i, b.ID, b.CreatedAt)
		}
	}
}

// BenchmarkCompact times one Compact of 45k recovered (cold) sessions, the
// recover workload's journal size, over a journal that keeps the snapshots:
// the gathering and the ordering Compact does under its lock.
func BenchmarkCompact(b *testing.B) {
	m := NewManager(Config{Journal: &recordingJournal{}})
	if n, err := m.Recover(compactSnapshots(45000)); n != 45000 || err != nil {
		b.Fatalf("Recover = %d, %v", n, err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := m.Compact(); err != nil {
			b.Fatal(err)
		}
	}
}
