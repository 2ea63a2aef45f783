package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"ldmo/internal/ilt"
	"ldmo/internal/layout"
	"ldmo/internal/sampling"
)

// train: the ldmo-train pipeline. Set-up generates a seeded pool and selects
// representatives (SIFT + k-medoids); the measured phase labels them with
// full-trajectory ILT at 8 nm and fits the Tiny predictor on the
// dihedral-augmented set for a fixed number of epochs. This is where the
// nn/tensor kernels (GEMM, im2col/col2im, Adam) do most of the work.
const (
	trainPool   = 60
	trainPer    = 2
	trainEpochs = 10
	// trainDecompsPerSecond fixes the labeled decomposition count from
	// --seconds: 64 at 20 s, which label and fit in about 14 s on a 2-CPU
	// Xeon.
	trainDecompsPerSecond = 3.2
)

type trainSetup struct {
	sc      sampling.Config
	sel     []layout.Layout
	selectS float64
}

func setupTrain(decomps int) (trainSetup, error) {
	ls, err := pool(corpusSeed, trainPool)
	if err != nil {
		return trainSetup{}, err
	}
	// About four decompositions per selected layout: select well over the
	// budget, so that the cap can fill it.
	sc := samplingConfig(corpusSeed, max(2, decomps/5), trainPer)
	t0 := time.Now()
	sel, n, err := selectCapped(ls, sc, decomps)
	if err != nil {
		return trainSetup{}, err
	}
	if n < decomps*9/10 {
		return trainSetup{}, fmt.Errorf("selection holds %d decompositions, budget %d", n, decomps)
	}
	return trainSetup{sc: sc, sel: sel, selectS: time.Since(t0).Seconds()}, nil
}

func runTrain(b *bench) error {
	decomps := max(4, int(math.Round(float64(b.seconds)*trainDecompsPerSecond)))
	st, err := timedSetup(b, 3, func() (trainSetup, error) { return setupTrain(decomps) }, nil)
	if err != nil {
		return err
	}

	mem := startMem()
	b.attempted = 1
	t0 := time.Now()
	pred, ts, err := labelAndFit(context.Background(), st.sel, st.sc, trainEpochs, b.seed)
	wall := time.Since(t0).Seconds()
	if err != nil {
		b.failed = 1
		b.problemf("training: %v", err)
	} else if math.IsNaN(ts.finalLoss) || math.IsInf(ts.finalLoss, 0) {
		b.failed = 1
		b.problemf("final loss is %v", ts.finalLoss)
	}
	allocMB, gcs := mem.perOp(trainEpochs)
	ts.selectS = st.selectS
	b.checkDigest(fmt.Sprintf("loss=%016x samples=%d", math.Float64bits(ts.finalLoss), ts.samples))

	if !b.trace {
		b.put("throughput_per_s", "1/s", float64(ts.samples*trainEpochs)/ts.fitS)
		b.put("latency_p50_s", "s", median(ts.epochS))
		b.put("makespan_s", "s", wall)
		b.put("ok_share", "ratio", float64(b.attempted-b.failed)/float64(b.attempted))
		b.put("quality_cost", "score", ts.finalLoss)
		b.put("peak_rss_mb", "MB", peakRSSMB())
		return nil
	}
	if pred == nil {
		return fmt.Errorf("no trained predictor to trace")
	}

	putTraining(b, ts)
	if err := putLabelILT(b, st); err != nil {
		return err
	}
	b.put("trace.coverage", "ratio", (ts.labelS+sum(ts.epochS))/wall)
	// No instrument runs inside the measured phase: the epoch timestamps come
	// from the training log, which the untraced run writes too.
	b.put("trace.overhead", "ratio", 0)
	putZeros(b, serveLayerMetrics)
	putZeros(b, coreLayerMetrics)
	b.put("epe_per_layout", "count", 0)
	b.put("sim_s_per_layout", "model_s", 0)
	b.put("go.alloc_mb_per_op", "MB", allocMB)
	b.put("go.gc_cycles_per_op", "count", gcs)
	clips, err := makeClips(corpusSeed, 1)
	if err != nil {
		return err
	}
	return putKernels(b, clips[0], pred)
}

// putLabelILT times the labeling stage's layers on the first selected
// layout: sampled-decomposition generation, and one full-trajectory ILT run
// per decomposition, serially.
func putLabelILT(b *bench, st trainSetup) error {
	var genMS, runMS, iters []float64
	var cands int
	for _, l := range st.sel {
		t := time.Now()
		ds, err := sampling.SampleDecompositions(l, st.sc)
		if err != nil {
			return err
		}
		genMS = append(genMS, ms(time.Since(t)))
		cands += len(ds)
	}
	l := st.sel[0]
	ds, err := sampling.SampleDecompositions(l, st.sc)
	if err != nil {
		return err
	}
	opt, err := ilt.NewOptimizer(l, st.sc.ILT)
	if err != nil {
		return err
	}
	for _, d := range ds {
		t := time.Now()
		r := opt.Run(d)
		runMS = append(runMS, ms(time.Since(t)))
		iters = append(iters, float64(r.Iters))
	}
	b.put("decomp.generate_ms", "ms", median(genMS))
	b.put("decomp.candidates_per_layout", "count", float64(cands)/float64(len(st.sel)))
	b.put("ilt.attempt_ms", "ms", median(runMS))
	b.put("ilt.iters_per_attempt", "count", mean(iters))
	return nil
}
