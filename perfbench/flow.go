package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"ldmo/internal/core"
	"ldmo/internal/layout"
	"ldmo/internal/model"
	"ldmo/internal/simclock"
)

// flow_clips: a closed loop of one caller running core.Flow.RunContext (the
// ldmo CLI path: context.Background(), zero Budget) over seeded 2x2-tile
// clips. The clip raster needs a 512x512 FFT plane, whose half-spectrum
// (about 2.1 MB) does not fit a 2 MiB per-core L2.
const (
	// clipsPerSecond fixes the clip count from --seconds: 8 at 20 s, which
	// take about 18 s on a 2-CPU Xeon.
	clipsPerSecond = 1 / 2.6
	// flowMaxAttempts is FlowConfig.MaxAttempts, serve's max_attempts.
	flowMaxAttempts = 8
	// overheadClips is how many clips a traced run times with and without
	// the tracing scorer to measure trace.overhead.
	overheadClips = 1
)

type flowState struct {
	pred   *model.Predictor
	train  trainStats
	clips  []layout.Layout
	warmup layout.Layout
}

func flowConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.MaxAttempts = flowMaxAttempts
	return cfg
}

func setupFlow(seed int64, n int) (flowState, error) {
	pred, ts, err := trainPredictor()
	if err != nil {
		return flowState{}, err
	}
	// Clip n is the warm-up: it fills the 512x512 FFT plan and the litho
	// kernel-bank caches before timing starts.
	clips, err := makeClips(corpusSeed, n+1)
	if err != nil {
		return flowState{}, err
	}
	st := flowState{pred: pred, train: ts, clips: shuffled(clips[:n], seed), warmup: clips[n]}
	if _, err := core.NewFlow(pred, flowConfig()).RunContext(context.Background(), st.warmup); err != nil {
		return flowState{}, fmt.Errorf("warm-up clip: %w", err)
	}
	return st, nil
}

func runFlowClips(b *bench) error {
	n := max(1, int(math.Round(float64(b.seconds)*clipsPerSecond)))
	st, err := timedSetup(b, 3, func() (flowState, error) { return setupFlow(b.seed, n) }, nil)
	if err != nil {
		return err
	}
	var scorer core.Scorer = st.pred
	var ts *timedScorer
	if b.trace {
		ts = &timedScorer{p: st.pred}
		scorer = ts
	}
	flow := core.NewFlow(scorer, flowConfig())

	mem := startMem()
	results := make([]core.Result, n)
	walls := make([]float64, n)
	lines := make([]string, n)
	t0 := time.Now()
	for i, clip := range st.clips {
		b.attempted++
		c0 := time.Now()
		res, err := flow.RunContext(context.Background(), clip)
		walls[i] = time.Since(c0).Seconds()
		switch {
		case err != nil:
			b.failed++
			b.problemf("clip %s: %v", clip.Name, err)
		case res.ILT.M1 == nil || res.ILT.M2 == nil:
			b.failed++
			b.problemf("clip %s returned no masks", clip.Name)
		case res.Interrupted || res.ScorerFallback:
			b.failed++
			b.problemf("clip %s degraded (interrupted=%v scorer_fallback=%v)", clip.Name, res.Interrupted, res.ScorerFallback)
		}
		results[i] = res
		lines[i] = fmt.Sprintf("%s %s %s %s", clip.Name, res.Chosen.Key(), gridSHA(res.ILT.M1), gridSHA(res.ILT.M2))
	}
	wall := time.Since(t0).Seconds()
	allocMB, gcs := mem.perOp(n)
	b.checkDigest(digest(lines))

	w := model.DefaultScoreWeights()
	cost, epe, sim := map[string]float64{}, map[string]float64{}, map[string]float64{}
	for _, r := range results {
		cost[r.Layout.Name] = w.Score(r.ILT.L2, r.ILT.EPE.Violations, r.ILT.Violations.Total())
		epe[r.Layout.Name] = float64(r.ILT.EPE.Violations)
		sim[r.Layout.Name] = r.Seconds
	}
	if !b.trace {
		b.put("throughput_per_s", "1/s", float64(n)/wall)
		b.put("latency_p50_s", "s", median(walls))
		b.put("makespan_s", "s", wall)
		b.put("ok_share", "ratio", float64(b.attempted-b.failed)/float64(b.attempted))
		b.put("quality_cost", "score", meanByName(cost))
		b.put("peak_rss_mb", "MB", peakRSSMB())
		return nil
	}
	b.put("epe_per_layout", "count", meanByName(epe))
	b.put("sim_s_per_layout", "model_s", meanByName(sim))

	// Traced run: replay every clip's generate stage and ILT attempts from
	// outside, check that the replay did the flow's simulation work exactly,
	// then time the kernels below ILT.
	var lt layerTotals
	var layerS float64
	calls, images, busy := ts.snapshot()
	for i, clip := range st.clips {
		res := results[i]
		rp, err := replayFlow(clip, flowConfig(), st.pred, res.PredScores, res.Attempts, res.Forced, false)
		if err != nil {
			return err
		}
		want := res.Clock.Count(simclock.CostConvolution)
		if got := rp.clock.Count(simclock.CostConvolution); got != want || rp.clock.Seconds() != res.Seconds {
			b.problemf("replay of %s: %d convolutions / %v model s, flow did %d / %v", clip.Name, got, rp.clock.Seconds(), want, res.Seconds)
		}
		lt.add(rp, res.Forced)
		layerS += (rp.genDur + rp.iltDur()).Seconds()
	}
	layerS += busy.Seconds()
	lt.put(b, calls, images, busy)
	b.put("trace.coverage", "ratio", layerS/sum(walls))
	overhead, err := traceOverhead(st.pred, flowConfig(), st.clips[:min(overheadClips, n)], false)
	if err != nil {
		return err
	}
	b.put("trace.overhead", "ratio", overhead)
	putTraining(b, st.train)
	putZeros(b, serveLayerMetrics)
	b.put("go.alloc_mb_per_op", "MB", allocMB)
	b.put("go.gc_cycles_per_op", "count", gcs)
	return putKernels(b, st.clips[0], st.pred)
}
