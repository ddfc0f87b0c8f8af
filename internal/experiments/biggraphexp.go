package experiments

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"querylearn/internal/graph"
	"querylearn/internal/graphlearn"
	"querylearn/internal/server"
	"querylearn/internal/session"
	"querylearn/pkg/api"
	"querylearn/pkg/client"
)

// T14 exercises the tentpole of the sparse version-space engine: interactive
// path sessions on graphs two orders of magnitude past the old 4096-node
// dense-bitset cap, created and converged over the /v1 wire protocol. The
// "dense n² MB" column is what the pre-sparse engine would have allocated for
// the same candidate space — the memory the pool projection avoids.

// bigGraphGoal is the hidden query the simulated user answers for.
var bigGraphGoal = graph.MustParsePathQuery("highway.road*")

// underGoTest reports whether this process is a `go test` binary (the
// testing package registers its flags at init). TestAllRuns exercises every
// experiment, and T14's full-size graphs would otherwise run twice in CI —
// once in make test, once in make bench-t14.
func underGoTest() bool { return flag.Lookup("test.v") != nil }

// findBigSeed walks the graph for a pair whose shortest word is one highway
// hop followed by 2..4 road hops, without any all-pairs evaluation — the
// cheap analogue of T8's mixedSeed for graphs where Eval(goal) is
// unaffordable.
func findBigSeed(g *graph.Graph) (graph.Pair, bool) {
	n := g.NumNodes()
	for src := 0; src < n; src++ {
		var mid int
		found := false
		g.Out(src, func(label string, to int) {
			if !found && label == "highway" && to != src {
				mid, found = to, true
			}
		})
		if !found {
			continue
		}
		cur := mid
		for hop := 0; hop < 3; hop++ {
			next, ok := -1, false
			g.Out(cur, func(label string, to int) {
				if !ok && label == "road" && to != cur && to != src {
					next, ok = to, true
				}
			})
			if !ok {
				break
			}
			cur = next
			if hop == 0 {
				continue // want at least two road hops
			}
			w := g.ShortestWord(src, cur)
			if len(w) < 3 || w[0] != "highway" {
				continue
			}
			good := true
			for _, l := range w[1:] {
				if l != "road" {
					good = false
					break
				}
			}
			if good {
				return graph.Pair{Src: src, Dst: cur}, true
			}
		}
	}
	return graph.Pair{}, false
}

// T14BigGraphSessions measures interactive path-session creation and
// convergence on large geographic graphs over /v1.
func T14BigGraphSessions(scale int) *Table {
	t := &Table{
		ID:    "T14",
		Title: "big-graph interactive path sessions over /v1",
		Claim: "session memory and creation scale with the question pool, not n² — the sparse pool-projected version space (ROADMAP north star)",
		Header: []string{"nodes", "edges", "pool", "cands", "create ms", "heap MB", "dense n² MB",
			"questions", "converge ms", "learned"},
	}
	// Vary the pool at fixed n (session cost must follow the pool) and vary
	// n at fixed pool (session cost must not follow n²). Scale 2 adds the
	// full default-pool run on the 100k-node graph.
	type cfg struct{ nodes, pool int }
	cfgs := []cfg{{20000, 500}, {20000, 2000}, {100000, 500}}
	if scale > 1 {
		cfgs = append(cfgs, cfg{100000, 2000}, cfg{250000, 500})
	}
	if raceEnabled || underGoTest() {
		// Same code paths, smoke-sized: still above the old 4096-node cap,
		// small enough for `go test [-race] ./...` on small machines. The
		// full sizes belong to benchrunner (make bench-t14, bench-json), so
		// CI runs the big graphs exactly once, not again inside make test.
		cfgs = []cfg{{6000, 300}}
	}
	for _, c := range cfgs {
		row, err := runBigGraphSession(c.nodes, c.pool)
		if err != nil {
			t.Rows = append(t.Rows, []string{fmt.Sprint(c.nodes), "ERROR", err.Error()})
			continue
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"full /v1 dialogues through the pkg/client SDK against an httptest daemon (WithMaxBodyBytes raised for the edge-list bodies)",
		"heap MB is the post-GC heap growth of hosting the session — dominated by the parsed O(nodes+edges) graph, with the version space contributing O(candidates × pool) bits; it also counts the evaluation scratch creation leaves in a sync.Pool for the next build (up to about 60 bytes per node per GOMAXPROCS worker), which a second collection without builds drops",
		"creation evaluates all the candidates over the pool in one shared call: bit-parallel passes of 64 sources (or destinations), each applying the atoms the candidates share once and closing starred labels over their strongly connected components; the passes fan out over GOMAXPROCS workers",
		"dense n² MB is what the pre-PR5 engine's candidate bitsets (cands × n² bits) would have needed; it rejected these graphs at 4096 nodes")
	return t
}

func runBigGraphSession(n, poolLimit int) ([]string, error) {
	g := graph.GenerateGeo(int64(n), n)
	seed, ok := findBigSeed(g)
	if !ok {
		return nil, fmt.Errorf("no highway.road+ seed pair in the generated graph")
	}
	var b strings.Builder
	for _, e := range g.Triples() {
		fmt.Fprintf(&b, "edge %s %s %s\n", e.From, e.Label, e.To)
	}
	fmt.Fprintf(&b, "pos %s %s\n", g.Node(seed.Src), g.Node(seed.Dst))
	task := b.String()
	nCands := len(graphlearn.CandidatesFromWord(g.ShortestWord(seed.Src, seed.Dst)))

	mgr := session.NewManager(session.Config{})
	ts := httptest.NewServer(server.New(mgr, server.WithMaxBodyBytes(256<<20)).Handler())
	defer ts.Close()
	sdk := client.New(ts.URL, client.WithHTTPClient(ts.Client()))
	ctx := context.Background()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	created, err := sdk.Create(ctx, api.CreateRequest{
		Model: "path", Task: task,
		Limits: &api.PathLimits{PoolLimit: poolLimit},
	})
	if err != nil {
		return nil, fmt.Errorf("create: %w", err)
	}
	createMS := time.Since(start).Seconds() * 1000
	runtime.GC()
	runtime.ReadMemStats(&after)
	heapMB := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / 1e6

	questions := 0
	start = time.Now()
	for {
		qs, err := sdk.Questions(ctx, created.ID, 16)
		if err != nil {
			return nil, fmt.Errorf("questions: %w", err)
		}
		if len(qs) == 0 {
			break
		}
		answers := make([]api.Answer, 0, len(qs))
		for _, q := range qs {
			var it struct{ Src, Dst string }
			if err := json.Unmarshal(q.Item, &it); err != nil {
				return nil, err
			}
			src, dst := g.NodeIndex(it.Src), g.NodeIndex(it.Dst)
			if src < 0 || dst < 0 {
				return nil, fmt.Errorf("question names unknown node (%s, %s)", it.Src, it.Dst)
			}
			answers = append(answers, api.Answer{Item: q.Item, Positive: g.Selects(bigGraphGoal, src, dst)})
			questions++
		}
		if _, err := sdk.Answers(ctx, created.ID, answers, api.ReconcileNone); err != nil {
			return nil, fmt.Errorf("answers: %w", err)
		}
	}
	convergeMS := time.Since(start).Seconds() * 1000
	hyp, err := sdk.Hypothesis(ctx, created.ID)
	if err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	pool := hyp.Detail["pool"]
	denseMB := float64(nCands) * float64(n) * float64(n) / 8 / 1e6
	if err := sdk.Delete(ctx, created.ID); err != nil {
		return nil, fmt.Errorf("delete: %w", err)
	}
	return []string{
		fmt.Sprint(n), fmt.Sprint(g.NumEdges()), pool, fmt.Sprint(nCands),
		fmt.Sprintf("%.0f", createMS), fmt.Sprintf("%.1f", heapMB),
		fmt.Sprintf("%.0f", denseMB), fmt.Sprint(questions),
		fmt.Sprintf("%.0f", convergeMS), hyp.Query,
	}, nil
}
