package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"querylearn/internal/codec"
	"querylearn/internal/core"
	"querylearn/internal/graphlearn"
	"querylearn/internal/session"
	"querylearn/internal/store"
)

// replayCap bounds the distinct tasks per kind a replay times, keeping a
// traced run's replays to a few seconds on the largest inputs.
const replayCap = 8

// replayInputs are the inputs one workload generated, replayed in process
// through single layers' public functions after its traced run: the seed
// tasks the daemon received, the full tasks goals were learned from, and the
// journal the daemon left when it was killed.
type replayInputs struct {
	seeds   []batchTask
	full    []batchTask
	journal string // data directory holding journal.log
}

// addVariants collects the seed and full tasks of dialogue variants.
func (in *replayInputs) addVariants(vs []*variant) {
	for _, v := range vs {
		in.seeds = append(in.seeds, batchTask{v.model, v.model, v.seed})
		in.full = append(in.full, batchTask{v.model, v.model, v.full})
	}
}

// capped keeps the first replayCap distinct texts of each kind.
func capped(ts []batchTask) []batchTask {
	seen := map[string]bool{}
	per := map[string]int{}
	var out []batchTask
	for _, t := range ts {
		if seen[t.text] || per[t.kind] >= replayCap {
			continue
		}
		seen[t.text] = true
		per[t.kind]++
		out = append(out, t)
	}
	return out
}

// defaultLimits are querylearnd's default session limits, which every
// benchmark session runs under.
var defaultLimits = session.Limits{
	PathMaxNodes:   session.DefaultPathMaxNodes,
	PathPoolLimit:  session.DefaultPathPoolLimit,
	PathPoolMaxLen: session.DefaultPathPoolMaxLen,
}

// run times every replay and records the per-layer metrics.
func (in *replayInputs) run(r *run) error {
	seeds, full := capped(in.seeds), capped(in.full)
	var parse, build, planT, pool, evalPairs, learn samples
	for _, t := range seeds {
		start := time.Now()
		if err := parseTask(t); err != nil {
			return err
		}
		parse.addDur(time.Since(start))

		start = time.Now()
		l, err := session.NewLimited(t.model, t.text, defaultLimits)
		elapsed := time.Since(start)
		if err != nil {
			return fmt.Errorf("replay build %s: %w", t.model, err)
		}
		if pr, ok := l.(session.PlanReporter); ok {
			d, _, _ := pr.PlanRecorder().Drain()
			elapsed -= d
			planT.addDur(d)
		}
		build.addDur(elapsed)

		if t.model == "path" {
			p, e, err := replayPathLayers(t.text)
			if err != nil {
				return err
			}
			pool.addDur(p)
			evalPairs.addDur(e)
		}
	}
	for _, t := range full {
		out, err := learnBatch(t)
		if err != nil {
			return fmt.Errorf("replay learn %s: %w", t.kind, err)
		}
		learn.addDur(out.learn)
	}
	r.set("core.parse_us", parse.mean()*1e3)
	r.set("learner.build_ms", build.mean())
	r.set("plan.us", planT.mean()*1e3)
	r.set("graphlearn.pool_ms", pool.mean())
	r.set("graph.evalpairs_ms", evalPairs.mean())
	r.set("learn.batch_ms", learn.mean())
	r.printf("replay: %d seed tasks (parse, build, plan; %d path tasks: pool, EvalPairs), %d full tasks (batch learn)",
		len(seeds), pool.n(), len(full))
	return in.replayJournal(r)
}

// parseTask runs the task parser the daemon and the CLI use.
func parseTask(t batchTask) error {
	var err error
	switch t.model {
	case "twig":
		_, err = core.ParseTwigTask(t.text)
	case "join":
		_, err = core.ParseJoinTask(t.text)
	case "path":
		_, err = core.ParsePathTask(t.text)
	case "schema":
		_, err = core.ParseSchemaTask(t.text)
	default:
		err = fmt.Errorf("unknown model %q", t.model)
	}
	return err
}

// replayPathLayers times the two graph layers of a path session's build:
// the question pool and the candidate evaluation over it.
func replayPathLayers(text string) (poolT, evalT time.Duration, err error) {
	t, err := core.ParsePathTask(text)
	if err != nil {
		return 0, 0, err
	}
	if len(t.Examples) == 0 {
		return 0, 0, fmt.Errorf("path task without examples")
	}
	g, seed := t.Graph, t.Examples[0]
	start := time.Now()
	pool := graphlearn.DefaultPool(g, defaultLimits.PathPoolMaxLen, defaultLimits.PathPoolLimit)
	poolT = time.Since(start)
	cands := graphlearn.CandidatesFromWord(g.ShortestWord(seed.Src, seed.Dst))
	start = time.Now()
	for _, c := range cands {
		g.EvalPairs(c, pool)
	}
	return poolT, time.Since(start), nil
}

// replayJournal times the journal's decode, the store's open (replay plus
// boot compaction) and the manager's recovery on a copy of the journal the
// killed daemon left.
func (in *replayInputs) replayJournal(r *run) error {
	src := filepath.Join(in.journal, "journal.log")
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	events, decode, err := decodeJournal(data)
	if err != nil {
		return err
	}
	r.set("codec.decode_us", decode.Seconds()*1e6/float64(max(events, 1)))

	dir := in.journal + "-replay"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := os.WriteFile(filepath.Join(dir, "journal.log"), data, 0o644); err != nil {
		return err
	}
	start := time.Now()
	st, snaps, err := store.Open(dir, store.Options{Fsync: store.FsyncBatched})
	openT := time.Since(start)
	if err != nil {
		return err
	}
	defer st.Close()
	mgr := session.NewManager(session.Config{Journal: st})
	start = time.Now()
	n, err := mgr.Recover(snaps)
	recoverT := time.Since(start)
	if err != nil {
		return fmt.Errorf("replay recover: %w", err)
	}
	r.set("store.open_ms", openT.Seconds()*1e3)
	r.set("session.recover_ms", recoverT.Seconds()*1e3)
	r.printf("replay: journal of %d KB, %d events decoded; store.Open %.2f ms, Manager.Recover of %d sessions %.2f ms",
		len(data)/1024, events, openT.Seconds()*1e3, n, recoverT.Seconds()*1e3)
	return nil
}

// decodeJournal reads every framed record and times the v2 decoder over
// the payloads. A torn final record, which a SIGKILL can leave, ends the
// read like it ends recovery.
func decodeJournal(data []byte) (events int, elapsed time.Duration, err error) {
	br := bufio.NewReader(bytes.NewReader(data))
	var payloads [][]byte
	for {
		p, err := store.ReadRecord(br)
		if err != nil {
			if !errors.Is(err, io.EOF) && len(payloads) == 0 {
				return 0, 0, err
			}
			break
		}
		payloads = append(payloads, p)
	}
	dec := codec.NewDecoder()
	start := time.Now()
	for _, p := range payloads {
		if !codec.IsV2(p) {
			continue
		}
		_, ok, err := dec.DecodePayload(p)
		if err != nil {
			return 0, 0, fmt.Errorf("decoding journal: %w", err)
		}
		if ok {
			events++
		}
	}
	return events, time.Since(start), nil
}
