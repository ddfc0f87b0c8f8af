package main

import (
	"context"
	"time"
)

// path-geo: closed loop, one client. Path dialogues on geographic graphs
// of three sizes in rotation, seeded from pairs whose shortest word
// is highway.road+, answered against highway.road* with the default pool
// of 2000 pairs and one question per round trip. Time to first question is
// almost all learner.build — parse, DefaultPool, EvalPairs, plan — so graph
// and planner changes show here and not in mix-open. Its p50 follows the
// 2k-node graphs, its p90 the 5k-node ones; a 20k-node graph (about 0.6 s to
// build) would leave too few dialogues in a run for a steady tail. The
// seed orders the graphs; each round still rotates the three sizes.
var geoSizes = []int{1000, 2000, 5000}

func runPathGeo(ctx context.Context, r *run) error {
	graphs, err := geoVariants(geoSizes, r.cfg.size.geoGraphs)
	if err != nil {
		return err
	}
	var vs []*variant
	for _, k := range rngFor(r.cfg.seed, "geo-order", 0).Perm(r.cfg.size.geoGraphs) {
		vs = append(vs, graphs[k*len(geoSizes):(k+1)*len(geoSizes)]...)
	}
	s, err := bootDaemon(r, daemonOpts{}, nil)
	if err != nil {
		return err
	}
	defer s.d.kill()
	drv := &dialogueRunner{
		sdk: newSDK(s.d.base, s.hc), tr: s.tr,
		ledger: newLedger(), times: newTimings(), inWindow: s.inWindow,
	}
	// Warm-up: one dialogue per graph size, unmeasured.
	for _, v := range vs[:len(geoSizes)] {
		if err := drv.dialogue(ctx, v, "", nil); err != nil {
			return err
		}
	}
	if err := s.open(); err != nil {
		return err
	}
	deadline := s.start.Add(r.cfg.window())
	dialogues := 0
	for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
		r.attempt(1)
		if err := drv.dialogue(ctx, vs[i%len(vs)], "", nil); err != nil {
			r.fail("dialogue %d: %v", i, err)
			continue
		}
		dialogues++
	}
	elapsed := time.Since(s.start)
	in := &replayInputs{}
	in.addVariants(vs)
	cpu, peak, err := s.close(in)
	if err != nil {
		return err
	}
	s.daemonMetrics(dialogues, cpu, peak)
	r.latency("ttfq (create + first question)", drv.times.get("ttfq"), 0.90)
	r.set("ops_per_s", float64(dialogues)/elapsed.Seconds())
	q, n := drv.ledger.mean()
	r.set("questions_per_dialogue", q)
	r.printf("%d dialogues in %.2f s over %d distinct tasks, %.3f questions per dialogue",
		dialogues, elapsed.Seconds(), n, q)
	drv.ledger.report(r, len(vs))
	r.breakdown("ttfq", drv.times.get("ttfq"))
	r.breakdown("turn", drv.times.get("turn"))
	r.breakdown("finish", drv.times.get("finish"))
	return nil
}
