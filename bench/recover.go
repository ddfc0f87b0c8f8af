package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"querylearn/internal/session"
	"querylearn/internal/store"
	"querylearn/pkg/api"
)

// recover: set-up, then boots, then a closed-loop finish. The set-up
// (untimed) writes a seeded corpus of mid-dialogue sessions through the
// store and the session manager in process. The daemon then boots on fresh
// copies of it — setup_s is the median boot, where store.Open and
// Manager.Recover do the work — and two clients finish recovered dialogues
// in seeded order. The store layer is the one mix-open writes through, here
// reading. Path tasks stay fixture-sized: with big graphs in the corpus,
// the graph layer would hide the store.
const (
	recoverVariants = 256
	recoverClients  = maxConns
)

// corpusSession is one journaled session the finish loop continues.
type corpusSession struct {
	id    string
	v     *variant
	prior []label
}

func runRecover(ctx context.Context, r *run) error {
	vs, err := smallVariants(recoverVariants)
	if err != nil {
		return err
	}
	corpusDir := filepath.Join(r.cfg.dir, "corpus")
	sessions, events, err := writeCorpus(corpusDir, r.cfg.seed, vs, r.cfg.size.recoverPerSecond*r.cfg.seconds)
	if err != nil {
		return err
	}
	journal, err := os.ReadFile(filepath.Join(corpusDir, "journal.log"))
	if err != nil {
		return err
	}
	r.printf("corpus: %d mid-dialogue sessions, %d events, %d KB journal", len(sessions), events, len(journal)/1024)
	s, err := bootDaemon(r, daemonOpts{unlimited: true}, func(dataDir string) error {
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dataDir, "journal.log"), journal, 0o644)
	})
	if err != nil {
		return err
	}
	defer s.d.kill()
	drv := &dialogueRunner{
		sdk: newSDK(s.d.base, s.hc), tr: s.tr,
		ledger: newLedger(), times: newTimings(), inWindow: s.inWindow,
	}
	order := rngFor(r.cfg.seed, "recover-order", 0).Perm(len(sessions))
	if err := s.open(); err != nil {
		return err
	}
	deadline := s.start.Add(r.cfg.window())
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < recoverClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(order) {
					return
				}
				cs := sessions[order[i]]
				r.attempt(1)
				if err := drv.dialogue(ctx, cs.v, cs.id, cs.prior); err != nil {
					r.fail("session %s: %v", cs.id, err)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(s.start)
	if int(next.Load()) >= len(order) {
		r.printf("WARNING: every corpus session was finished %.2f s into the %d s window", elapsed.Seconds(), r.cfg.seconds)
	}
	// The replays read the corpus journal, which is what every boot read.
	in := &replayInputs{journal: corpusDir}
	in.addVariants(vs)
	cpu, peak, err := s.close(in)
	if err != nil {
		return err
	}
	if r.cfg.traced {
		residual := r.values["setup_s"] - (r.values["store.open_ms"]+r.values["session.recover_ms"])/1e3
		r.set("setup.residual_s", residual)
		r.printf("setup_s %.4f s = store.Open %.4f s + Manager.Recover %.4f s + residual %.4f s (exec, listen, first /healthz)",
			r.values["setup_s"], r.values["store.open_ms"]/1e3, r.values["session.recover_ms"]/1e3, residual)
	}
	// Each boot's peak is set while it recovers the corpus, at a level the
	// garbage collector's timing moves; like setup_s, the metric is the
	// median over the boots. Finishing dialogues deletes sessions, so the
	// serving daemon's reading at the end of the window is its boot peak too.
	peaks := &samples{}
	peaks.merge(s.bootPeaks)
	peaks.add(peak)
	r.printf("peak RSS per boot: %v MB", peaks.xs)
	turns := drv.times.get("turn")
	s.daemonMetrics(turns.n(), cpu, peaks.quantile(0.5))
	r.latency("turn (answer + next question)", turns, 0.90)
	r.set("ops_per_s", float64(turns.n())/elapsed.Seconds())
	q, n := drv.ledger.mean()
	r.set("questions_per_dialogue", q)
	r.printf("%d recovered dialogues finished in %.2f s over %d distinct tasks, %.3f questions per dialogue",
		min(int(next.Load()), len(order)), elapsed.Seconds(), n, q)
	drv.ledger.report(r, len(vs))
	r.breakdown("first", drv.times.get("first"))
	r.breakdown("turn", turns)
	r.breakdown("finish", drv.times.get("finish"))
	return nil
}

// writeCorpus journals n sessions, each a seeded variant answered part of
// the way, through store.Open and a session.Manager — the daemon's own write
// path, in process. The store is closed without compaction, so the journal
// holds every create and answers event for the boot to replay.
func writeCorpus(dir string, seed int64, vs []*variant, n int) ([]corpusSession, int64, error) {
	st, _, err := store.Open(dir, store.Options{Fsync: store.FsyncOff})
	if err != nil {
		return nil, 0, err
	}
	mgr := session.NewManager(session.Config{Journal: st})
	rng := rngFor(seed, "recover-corpus", 0)
	out := make([]corpusSession, n)
	for i := range out {
		v := vs[rng.Intn(len(vs))]
		sess, err := mgr.Create(v.model, v.seed, session.CreateOptions{})
		if err != nil {
			st.Close()
			return nil, 0, fmt.Errorf("corpus session %d: %w", i, err)
		}
		cs := corpusSession{id: sess.ID(), v: v}
		for k := rng.Intn(3); k > 0; k-- {
			q, ok, err := sess.Question()
			if err != nil || !ok {
				break
			}
			positive, err := v.ask(q.Item)
			if err != nil {
				st.Close()
				return nil, 0, err
			}
			if _, err := sess.Answer([]api.Answer{{Item: q.Item, Positive: positive}}, api.ReconcileNone); err != nil {
				st.Close()
				return nil, 0, fmt.Errorf("corpus session %d: %w", i, err)
			}
			cs.prior = append(cs.prior, label{Item: q.Item, Positive: positive})
		}
		out[i] = cs
	}
	events := st.Stats().Appended
	return out, events, st.Close()
}
