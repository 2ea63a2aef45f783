package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"ldmo/internal/core"
	"ldmo/internal/decomp"
	"ldmo/internal/grid"
	"ldmo/internal/ilt"
	"ldmo/internal/layout"
	"ldmo/internal/model"
	"ldmo/internal/simclock"
)

// Tracing for this benchmark lives entirely in its own files: it times calls
// into each layer's public functions. The only instrument inside the
// measured end-to-end path is timedScorer; everything else below runs after
// the end-to-end phase, on the same inputs.

// timedScorer wraps the predictor handed to core.Flow or serve.Server in a
// traced run. It forwards PredictBatchInto, so the pipelined scheduler keeps
// its coalesced zero-allocation path, and Digest, so serve derives the same
// job IDs as with the bare predictor.
type timedScorer struct {
	p *model.Predictor

	mu     sync.Mutex
	calls  int
	images int
	busy   time.Duration
}

func (t *timedScorer) record(n int, d time.Duration) {
	t.mu.Lock()
	t.calls++
	t.images += n
	t.busy += d
	t.mu.Unlock()
}

// PredictBatch implements core.Scorer.
func (t *timedScorer) PredictBatch(imgs []*grid.Grid) []float64 {
	t0 := time.Now()
	out := t.p.PredictBatch(imgs)
	t.record(len(imgs), time.Since(t0))
	return out
}

// PredictBatchInto is the scheduler's allocation-free scoring entry.
func (t *timedScorer) PredictBatchInto(imgs []*grid.Grid, out []float64) {
	t0 := time.Now()
	t.p.PredictBatchInto(imgs, out)
	t.record(len(imgs), time.Since(t0))
}

// Digest forwards the predictor's checkpoint digest.
func (t *timedScorer) Digest() string { return t.p.Digest() }

func (t *timedScorer) snapshot() (calls, images int, busy time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.calls, t.images, t.busy
}

// traceOverhead runs the flow on each layout twice, with the bare predictor
// and with the timing scorer, alternating which goes first, and returns the
// relative extra wall time of the traced runs: trace.overhead. cancellable
// selects the context kind, as in replayFlow.
func traceOverhead(pred *model.Predictor, cfg core.Config, ls []layout.Layout, cancellable bool) (float64, error) {
	var plain, traced time.Duration
	for i, l := range ls {
		for j := 0; j < 2; j++ {
			var scorer core.Scorer = pred
			useTrace := (i+j)%2 == 1
			if useTrace {
				scorer = &timedScorer{p: pred}
			}
			ctx, cancel := context.Background(), context.CancelFunc(func() {})
			if cancellable {
				ctx, cancel = context.WithCancel(ctx)
			}
			t := time.Now()
			_, err := core.NewFlow(scorer, cfg).RunContext(ctx, l)
			d := time.Since(t)
			cancel()
			if err != nil {
				return 0, err
			}
			if useTrace {
				traced += d
			} else {
				plain += d
			}
		}
	}
	if plain == 0 {
		return 0, fmt.Errorf("trace overhead: no layouts to time")
	}
	return float64(traced)/float64(plain) - 1, nil
}

// attemptObs is one replayed ILT run.
type attemptObs struct {
	dur   time.Duration
	iters int
}

// replay is one layout's flow re-executed stage by stage from outside: the
// generate stage, the scoring (when no recorded scores are given), and the
// ILT attempts the flow made, under a fresh simclock that mirrors the flow's
// phases.
type replay struct {
	genDur     time.Duration
	predictDur time.Duration
	candidates int
	attempts   []attemptObs
	clock      *simclock.Clock
}

func (r replay) iltDur() time.Duration {
	var d time.Duration
	for _, a := range r.attempts {
		d += a.dur
	}
	return d
}

// replayFlow reproduces the work core.Flow did on l: generation with the
// flow's generator settings, candidate images, the predictor order (from
// scores when the flow recorded them, else by predicting again), then the
// first `attempts` candidates in that order with the violation abort on, and
// the forced full rerun of the best-predicted candidate when forced is set.
// cancellable selects the context kind the flow ran under: a cancellable
// context makes ILT keep best-so-far snapshots, which costs simulations.
func replayFlow(l layout.Layout, cfg core.Config, pred *model.Predictor, scores []float64, attempts int, forced, cancellable bool) (replay, error) {
	var r replay
	clock := simclock.New(cfg.ClockModel)
	clock.SetPhase(core.PhaseDS)
	r.clock = clock

	t0 := time.Now()
	gen := decomp.NewGenerator()
	gen.Classify = cfg.Classify
	gen.Seed = cfg.Seed
	gen.Clock = clock
	cands, err := gen.Generate(l)
	if err != nil {
		return r, err
	}
	var imgs []*grid.Grid
	if pred != nil && len(cands) > 1 {
		imgs = make([]*grid.Grid, len(cands))
		for i, d := range cands {
			imgs[i] = d.GrayImage(cfg.ImageRes, cfg.ImageSize)
		}
	}
	r.genDur = time.Since(t0)
	r.candidates = len(cands)

	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	if imgs != nil {
		if scores == nil {
			t1 := time.Now()
			scores = pred.PredictBatch(imgs)
			r.predictDur = time.Since(t1)
		}
		if len(scores) != len(cands) {
			return r, fmt.Errorf("replay %s: %d scores for %d candidates", l.Name, len(scores), len(cands))
		}
		clock.Charge(simclock.CostCNNInference, len(cands))
		sort.SliceStable(order, func(a, b int) bool { return scores[order[a]] < scores[order[b]] })
	}
	if attempts > len(cands) {
		return r, fmt.Errorf("replay %s: %d attempts for %d candidates", l.Name, attempts, len(cands))
	}

	iltCfg := cfg.ILT
	iltCfg.AbortOnViolation = true
	opt, err := ilt.NewOptimizer(l, iltCfg)
	if err != nil {
		return r, err
	}
	clock.SetPhase(core.PhaseMO)
	opt.SetClock(clock)
	ctx := context.Background()
	if cancellable {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
	}
	run := func(d decomp.Decomposition) {
		t := time.Now()
		res := opt.RunCtx(ctx, d)
		r.attempts = append(r.attempts, attemptObs{dur: time.Since(t), iters: res.Iters})
	}
	for a := 0; a < attempts; a++ {
		run(cands[order[a]])
	}
	if forced {
		opt.SetAbortOnViolation(false)
		opt.SetMaxIters(0)
		run(cands[order[0]])
	}
	return r, nil
}

// layerTotals accumulates replays and flow results into the core, decomp,
// ilt and simclock per-layer metrics.
type layerTotals struct {
	layouts, forced, attempts int
	candidates                int
	genMS                     []float64
	attemptMS, iters          []float64
	convs, cnn                int64
}

func (lt *layerTotals) add(r replay, forced bool) {
	lt.layouts++
	lt.candidates += r.candidates
	lt.genMS = append(lt.genMS, ms(r.genDur))
	for _, a := range r.attempts {
		lt.attempts++
		lt.attemptMS = append(lt.attemptMS, ms(a.dur))
		lt.iters = append(lt.iters, float64(a.iters))
	}
	if forced {
		lt.forced++
	}
	lt.convs += r.clock.Count(simclock.CostConvolution)
	lt.cnn += r.clock.Count(simclock.CostCNNInference)
}

// put prints the core, decomp, ilt-attempt and simclock metrics. calls,
// images and busy come from the timedScorer of the end-to-end phase.
func (lt *layerTotals) put(b *bench, calls, images int, busy time.Duration) {
	n := float64(max(lt.layouts, 1))
	b.put("core.predict_calls", "count", float64(calls))
	b.put("core.images_per_predict", "count", float64(images)/float64(max(calls, 1)))
	b.put("core.predict_ms_per_image", "ms", ms(busy)/float64(max(images, 1)))
	b.put("core.attempts_per_layout", "count", float64(lt.attempts)/n)
	b.put("core.useful_ilt_share", "ratio", float64(lt.layouts)/float64(max(lt.attempts, 1)))
	b.put("core.forced_share", "ratio", float64(lt.forced)/n)
	b.put("decomp.generate_ms", "ms", median(lt.genMS))
	b.put("decomp.candidates_per_layout", "count", float64(lt.candidates)/n)
	b.put("ilt.attempt_ms", "ms", median(lt.attemptMS))
	b.put("ilt.iters_per_attempt", "count", mean(lt.iters))
	b.put("simclock.convolutions_per_layout", "count", float64(lt.convs)/n)
	b.put("simclock.cnn_inferences_per_layout", "count", float64(lt.cnn)/n)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
