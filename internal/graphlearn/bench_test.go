package graphlearn

import (
	"fmt"
	"testing"

	"querylearn/internal/graph"
)

var benchVerdicts [][]bool

// BenchmarkEvalPairsGeo isolates the membership evaluation of a path
// session build: the 12 candidates of a highway.road.road seed over the
// default 2000-pair pool (shortest paths up to 5 hops, the session default)
// of a GenerateGeo graph of one of path-geo's sizes. One op is the build's
// one shared graph.EvalPairsMany call.
func BenchmarkEvalPairsGeo(b *testing.B) {
	cands := CandidatesFromWord([]string{"highway", "road", "road"})
	if len(cands) != 12 {
		b.Fatalf("%d candidates, want 12", len(cands))
	}
	for _, n := range []int{1000, 2000, 5000} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			g := graph.GenerateGeo(int64(n), n)
			pool := DefaultPool(g, 5, 2000)
			b.ReportAllocs()
			for b.Loop() {
				benchVerdicts = g.EvalPairsMany(cands, pool, nil)
			}
		})
	}
}
