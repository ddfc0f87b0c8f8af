package graph

import (
	"fmt"
	"testing"
)

var benchPairs []Pair

// BenchmarkEval isolates the all-pairs Eval that cmd/querylearn path and the
// graph→XML exchange run on a learned query, on GenerateGeo graphs of
// path-geo's sizes: one local query, one closure over the road network and
// one backbone closure before a final hop.
func BenchmarkEval(b *testing.B) {
	for _, n := range []int{1000, 2000, 5000} {
		g := GenerateGeo(int64(n), n)
		for _, qs := range []string{"highway.road*", "road*", "highway*.ferry"} {
			q := MustParsePathQuery(qs)
			b.Run(fmt.Sprintf("nodes=%d/%s", n, qs), func(b *testing.B) {
				benchPairs = g.Eval(q) // builds the label index outside the timing
				b.ReportAllocs()
				for b.Loop() {
					benchPairs = g.Eval(q)
				}
			})
		}
	}
}
