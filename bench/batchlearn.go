package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"querylearn/internal/core"
	"querylearn/internal/experiments"
	"querylearn/internal/graph"
	"querylearn/internal/relational"
	"querylearn/internal/rellearn"
	"querylearn/internal/schema"
	"querylearn/internal/twig"
	"querylearn/internal/xmark"
	"querylearn/internal/xmltree"
)

// batch-learn: closed loop, in process, one goroutine. It cycles a corpus
// of task texts, in seeded order, through core.Parse*Task and core.Learn*,
// exactly as cmd/querylearn does: pure learner CPU, no HTTP, no journal. It
// is the only workload that runs the semijoin search. Its twig goals are
// then learned once more interactively through a daemon, which checks the
// dialogues against the batch-learned queries and gives the workload its
// question count and its serving-layer trace.
const semijoinBudget = 1 << 22

// batchTask is one task text with the kind of work it exercises: its model,
// or semijoin-k6/semijoin-k8 for the two semijoin sizes.
type batchTask struct {
	kind  string // twig, join, semijoin-k6, semijoin-k8, path, schema
	model string
	text  string
}

// batchCorpus generates the corpus: twig goals on XMark documents,
// equi-joins, semijoins at two sizes, paths on geographic graphs, schemas.
// The semijoin search's cost varies by orders of magnitude between random
// instances (coefficient of variation 1.3-1.4 per instance at these sizes,
// and as high under a mere row and attribute permutation), which is one more
// reason the corpus does not follow the run's seed.
func batchCorpus() ([]batchTask, error) {
	var out []batchTask
	goals := xmark.LearningGoals()
	names := make([]string, 0, len(goals))
	for n := range goals {
		names = append(names, n)
	}
	sort.Strings(names)
	schemaLines := ""
	for _, line := range strings.Split(strings.TrimSpace(xmark.Schema().String()), "\n") {
		schemaLines += "schema " + line + "\n"
	}
	for i, name := range names {
		rng := rngFor(corpusSeed, "batch-twig", i)
		for {
			docs := []*xmltree.Node{
				xmark.Generate(rng.Int63(), xmark.ScaleConfig(2)),
				xmark.Generate(rng.Int63(), xmark.ScaleConfig(2)),
			}
			if len(goals[name].Eval(docs[0])) > 0 {
				out = append(out, batchTask{"twig", "twig", twigTaskText(docs, goals[name], schemaLines)})
				break
			}
		}
	}
	for i := 0; i < 8; i++ {
		rng := rngFor(corpusSeed, "batch-join", i)
		for {
			l, r := experiments.RandomJoinInstance(rng.Int63(), 5, 60, 4)
			if text, ok := joinTaskText(rng, l, r, randomPredicate(rng, l, r, 1+rng.Intn(2)), 4, 4); ok {
				out = append(out, batchTask{"join", "join", text})
				break
			}
		}
	}
	for _, sz := range []struct{ k, n int }{{6, 16}, {8, 24}} {
		for i := 0; i < 16; i++ {
			rng := rngFor(corpusSeed, fmt.Sprintf("batch-semijoin-%d", sz.k), i)
			out = append(out, batchTask{fmt.Sprintf("semijoin-k%d", sz.k), "join", semijoinTaskText(rng, sz.k, sz.n)})
		}
	}
	for i := 0; i < 4; i++ {
		rng := rngFor(corpusSeed, "batch-path", i)
		g := graph.GenerateGeo(rng.Int63(), 2000)
		pairs := geoSeeds(g, rng, 3)
		if len(pairs) == 0 {
			return nil, fmt.Errorf("batch path graph %d has no seed pair", i)
		}
		out = append(out, batchTask{"path", "path", pathTaskText(g, pairs)})
	}
	for i := 0; i < 8; i++ {
		rng := rngFor(corpusSeed, "batch-schema", i)
		for {
			goal, _ := experiments.RandomDMSPair(rng.Int63(), 8)
			if text, ok := schemaTaskText(rng, goal, 8, 4); ok {
				out = append(out, batchTask{"schema", "schema", text})
				break
			}
		}
	}
	return out, nil
}

// semijoinTaskText labels the left tuples of a random k-attribute instance
// four-fifths positive at random — the shape whose search explores many
// witness combinations — and redraws until the labelling is consistent, so
// every task has a predicate to find.
func semijoinTaskText(rng *rand.Rand, k, n int) string {
	for {
		l, r := experiments.RandomJoinInstance(rng.Int63(), k, n, 2)
		exs := make([]rellearn.SemijoinExample, l.Len())
		for i := range exs {
			exs[i] = rellearn.SemijoinExample{Left: i, Positive: rng.Intn(5) != 0}
		}
		if _, ok, _, err := rellearn.SemijoinConsistent(rellearn.NewUniverse(l, r), exs, semijoinBudget); err != nil || !ok {
			continue
		}
		var b strings.Builder
		writeRelations(&b, l, r)
		b.WriteString("semijoin\n")
		for _, ex := range exs {
			verdict := "neg"
			if ex.Positive {
				verdict = "pos"
			}
			fmt.Fprintf(&b, "%s %d\n", verdict, ex.Left)
		}
		return b.String()
	}
}

func semijoins(l, r *relational.Relation, i int, pred []relational.AttrPair) bool {
	for j := 0; j < r.Len(); j++ {
		if ok, _ := relational.PairsMatch(l, l.Tuple(i), r, r.Tuple(j), pred); ok {
			return true
		}
	}
	return false
}

// learned is one batch-learning outcome: the rendered query, the time the
// learner itself took (parsing excluded), and the check that the query is
// consistent with the task's examples.
type learned struct {
	query string
	learn time.Duration
	check func() error
}

// learnBatch parses and learns one task, as cmd/querylearn does; the check
// is returned unevaluated so it stays outside the timed region.
func learnBatch(t batchTask) (learned, error) {
	var out learned
	var err error
	timed := func(learn func()) {
		start := time.Now()
		learn()
		out.learn = time.Since(start)
	}
	switch t.model {
	case "twig":
		task, perr := core.ParseTwigTask(t.text)
		if perr != nil {
			return out, perr
		}
		var q twig.Query
		timed(func() { q, err = core.LearnXMLQuery(task.Examples, core.XMLOptions{Schema: task.Schema}) })
		out.query, out.check = q.String(), func() error { return checkTwig(q, task) }
	case "join":
		task, perr := core.ParseJoinTask(t.text)
		if perr != nil {
			return out, perr
		}
		var pred []relational.AttrPair
		if task.Semijoin {
			timed(func() { pred, err = core.LearnSemijoinQuery(task.Left, task.Right, task.SemiExamples, semijoinBudget) })
			out.check = func() error { return checkSemijoin(pred, task) }
		} else {
			timed(func() { pred, err = core.LearnJoinQuery(task.Left, task.Right, task.Examples) })
			out.check = func() error { return checkJoin(pred, task) }
		}
		out.query = renderPred(pred)
	case "path":
		task, perr := core.ParsePathTask(t.text)
		if perr != nil {
			return out, perr
		}
		var q graph.PathQuery
		timed(func() { q, err = core.LearnPathQuery(task.Graph, task.Examples) })
		out.query, out.check = q.String(), func() error {
			for _, ex := range task.Examples {
				if task.Graph.Selects(q, ex.Src, ex.Dst) != ex.Positive {
					return fmt.Errorf("path query %s mislabels example (%d, %d)", q, ex.Src, ex.Dst)
				}
			}
			return nil
		}
	case "schema":
		task, perr := core.ParseSchemaTask(t.text)
		if perr != nil {
			return out, perr
		}
		var s *schema.Schema
		timed(func() { s, err = core.LearnSchema(task.Docs) })
		if err != nil {
			return out, err
		}
		out.query, out.check = s.String(), func() error {
			for i, d := range task.Docs {
				if !s.Valid(d) {
					return fmt.Errorf("learned schema rejects document %d", i)
				}
			}
			return nil
		}
	default:
		return out, fmt.Errorf("unknown model %q", t.model)
	}
	return out, err
}

func renderPred(pred []relational.AttrPair) string {
	parts := make([]string, len(pred))
	for i, p := range relational.SortPairs(pred) {
		parts[i] = p.String()
	}
	return strings.Join(parts, " & ")
}

func checkTwig(q twig.Query, task *core.TwigTask) error {
	for _, ex := range task.Examples {
		selected := false
		for _, n := range q.Eval(ex.Doc) {
			if n == ex.Node {
				selected = true
				break
			}
		}
		if selected != ex.Positive {
			return fmt.Errorf("twig query %s mislabels %s", q, core.NodePathOf(ex.Node))
		}
	}
	return nil
}

func checkJoin(pred []relational.AttrPair, task *core.JoinTask) error {
	for _, ex := range task.Examples {
		ok, err := relational.PairsMatch(task.Left, task.Left.Tuple(ex.Left), task.Right, task.Right.Tuple(ex.Right), pred)
		if err != nil {
			return err
		}
		if ok != ex.Positive {
			return fmt.Errorf("join predicate %s mislabels (%d, %d)", renderPred(pred), ex.Left, ex.Right)
		}
	}
	return nil
}

func checkSemijoin(pred []relational.AttrPair, task *core.JoinTask) error {
	for _, ex := range task.SemiExamples {
		if semijoins(task.Left, task.Right, ex.Left, pred) != ex.Positive {
			return fmt.Errorf("semijoin predicate %s mislabels left tuple %d", renderPred(pred), ex.Left)
		}
	}
	return nil
}

// processCPU is this process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func runBatchLearn(ctx context.Context, r *run) error {
	corpus, err := batchCorpus()
	if err != nil {
		return err
	}
	s, err := bootDaemon(r, daemonOpts{}, nil)
	if err != nil {
		return err
	}
	defer s.d.kill()

	// Warm-up: every task once, which also checks each output against the
	// task's examples.
	first := make([]string, len(corpus))
	for i, t := range corpus {
		out, err := learnBatch(t)
		if err == nil {
			err = out.check()
		}
		if err != nil {
			return fmt.Errorf("batch task %d (%s): %w", i, t.kind, err)
		}
		first[i] = out.query
	}
	order := rngFor(r.cfg.seed, "batch-order", 0).Perm(len(corpus))
	all := &samples{}
	byKind := map[string]*samples{}
	// Peak memory is the learners' working set, not the corpus generator's:
	// return the set-up's garbage to the OS, then take the high-water mark
	// of every second of the window, restarting it each time. One mark over
	// the whole window is set by wherever the garbage collector's cycles
	// happen to fall, and moved by up to 30% between runs; the reported
	// peak is the median over the seconds, each of which cycles the corpus
	// about twenty times.
	debug.FreeOSMemory()
	resetPeak := func() error {
		if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
			return fmt.Errorf("resetting the peak RSS mark: %w", err)
		}
		return nil
	}
	peaks := &samples{}
	takePeak := func() error {
		p, err := peakRSS(os.Getpid())
		if err != nil {
			return err
		}
		peaks.add(p)
		return resetPeak()
	}
	if err := resetPeak(); err != nil {
		return err
	}
	cpu0, start := processCPU(), time.Now()
	deadline, sliceEnd := start.Add(r.cfg.window()), start.Add(time.Second)
	tasks := 0
	for ; time.Now().Before(deadline) && ctx.Err() == nil; tasks++ {
		if !time.Now().Before(sliceEnd) {
			if err := takePeak(); err != nil {
				return err
			}
			sliceEnd = sliceEnd.Add(time.Second)
		}
		i := order[tasks%len(order)]
		t0 := time.Now()
		out, err := learnBatch(corpus[i])
		d := time.Since(t0)
		r.attempt(1)
		if err != nil || out.query != first[i] {
			r.fail("batch task %d (%s): output %q, first %q, err %v", i, corpus[i].kind, out.query, first[i], err)
			continue
		}
		all.addDur(d)
		if byKind[corpus[i].kind] == nil {
			byKind[corpus[i].kind] = &samples{}
		}
		byKind[corpus[i].kind].addDur(d)
	}
	elapsed, cpu := time.Since(start), processCPU()-cpu0
	if err := takePeak(); err != nil {
		return err
	}
	r.latency("task (parse + learn)", all, 0.99)
	r.set("ops_per_s", float64(tasks)/elapsed.Seconds())
	r.set("cpu_ms_per_op", cpu.Seconds()*1e3/float64(max(tasks, 1)))
	r.set("peak_rss_mb", peaks.quantile(0.5))
	r.printf("%d tasks in %.2f s from a corpus of %d, %.2f s CPU; peak RSS of this process per second: median %.1f MB (min %.1f, max %.1f)",
		tasks, elapsed.Seconds(), len(corpus), cpu.Seconds(), peaks.quantile(0.5), peaks.quantile(0), peaks.quantile(1))
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		r.breakdown(k, byKind[k])
	}
	reportSemijoin(r, corpus)
	return verifyInteractively(ctx, r, s, corpus)
}

// reportSemijoin reports the semijoin search's explored nodes over the
// corpus, a count that must repeat exactly.
func reportSemijoin(r *run, corpus []batchTask) {
	nodes := 0
	for _, t := range corpus {
		task, err := core.ParseJoinTask(t.text)
		if err != nil || !task.Semijoin {
			continue
		}
		_, _, stats, _ := rellearn.SemijoinConsistent(rellearn.NewUniverse(task.Left, task.Right), task.SemiExamples, semijoinBudget)
		nodes += stats.NodesExplored
	}
	r.set("rellearn.semijoin_nodes", float64(nodes))
}

// verifyInteractively learns every twig goal of the corpus again as a
// dialogue through the daemon, with the batch-learned query as the oracle:
// the dialogue must converge to a hypothesis consistent with every answer.
// Twig alone: a 60-row join dialogue asks 150-300 questions, which would
// outlast the run.
func verifyInteractively(ctx context.Context, r *run, s *served, corpus []batchTask) error {
	var vs []*variant
	for i, t := range corpus {
		if t.kind != "twig" {
			continue
		}
		v, err := prepareVariant(i, t.model, t.text)
		if err != nil {
			return err
		}
		vs = append(vs, v)
	}
	drv := &dialogueRunner{
		sdk: newSDK(s.d.base, s.hc), tr: s.tr,
		ledger: newLedger(), times: newTimings(), inWindow: s.inWindow,
	}
	if err := s.open(); err != nil {
		return err
	}
	for _, v := range vs {
		r.attempt(1)
		if err := drv.dialogue(ctx, v, "", nil); err != nil {
			r.fail("dialogue on task %d (%s): %v", v.id, v.model, err)
		}
	}
	// The session-layer replays build learners from every corpus task a
	// session can host, so the graph layers see the 2k-node path tasks.
	in := &replayInputs{full: corpus}
	for _, t := range corpus {
		if !strings.HasPrefix(t.kind, "semijoin") {
			in.seeds = append(in.seeds, t)
		}
	}
	if _, _, err := s.close(in); err != nil {
		return err
	}
	q, n := drv.ledger.mean()
	r.set("questions_per_dialogue", q)
	r.printf("interactive check: %d dialogues through the daemon, %.3f questions per dialogue over %d tasks", len(vs), q, n)
	drv.ledger.report(r, len(vs))
	r.breakdown("ttfq", drv.times.get("ttfq"))
	r.breakdown("turn", drv.times.get("turn"))
	return nil
}
