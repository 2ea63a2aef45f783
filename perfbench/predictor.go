package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"ldmo/internal/layout"
	"ldmo/internal/model"
	"ldmo/internal/sampling"
)

// The set-up predictor of serve_cells and flow_clips: a small ldmo-train run
// (SIFT selection, 8 nm full-trajectory labels, dihedral augmentation, Tiny
// network) on the corpus, so every run ranks candidates with the same net.
// The decomposition budget fixes the labeled set's size.
const (
	setupPool     = 24
	setupClusters = 5
	setupPer      = 2
	setupDecomps  = 16
	setupEpochs   = 4
)

// trainStats is what one sampling + training pipeline measured.
type trainStats struct {
	selectS   float64   // SelectLayouts wall
	labelS    float64   // BuildDatasetCtx wall
	fitS      float64   // TrainCtx wall
	layouts   int       // layouts labeled
	decomps   int       // decompositions labeled
	samples   int       // augmented training samples
	epochS    []float64 // per-epoch wall, from the training log's timestamps
	finalLoss float64
}

// samplingConfig is the labeling configuration shared by the set-up
// predictor and the train workload: ldmo-train's defaults with the seed.
func samplingConfig(seed int64, clusters, per int) sampling.Config {
	sc := sampling.DefaultConfig()
	sc.Clusters = clusters
	sc.PerCluster = per
	sc.Seed = seed
	return sc
}

// pool generates the seeded layout pool; layouts with fewer than four
// contacts have at most two candidates and teach the predictor nothing.
func pool(seed int64, n int) ([]layout.Layout, error) {
	gp := layout.DefaultGenParams()
	gp.MinContacts = 4
	return layout.GenerateSet(seed, n, gp)
}

// selectCapped runs SIFT + k-medoids selection and caps the result at a
// fixed decomposition budget.
func selectCapped(ls []layout.Layout, sc sampling.Config, budget int) ([]layout.Layout, int, error) {
	sel, err := sampling.SelectLayouts(ls, sc)
	if err != nil {
		return nil, 0, err
	}
	return capDecompositions(sel, sc, budget)
}

// labelAndFit labels the selected layouts and trains a Tiny predictor on the
// augmented set, timing both stages and every epoch. seed sets the network's
// initialization and the batch shuffle.
func labelAndFit(ctx context.Context, sel []layout.Layout, sc sampling.Config, epochs int, seed int64) (*model.Predictor, trainStats, error) {
	st := trainStats{layouts: len(sel)}
	t0 := time.Now()
	ds, _, err := sampling.BuildDatasetCtx(ctx, sel, sc, nil)
	if err != nil {
		return nil, st, err
	}
	st.labelS = time.Since(t0).Seconds()
	st.decomps = ds.Len()
	aug := ds.Augmented()
	st.samples = aug.Len()
	mc := model.TinyConfig()
	mc.Seed = seed
	pred, err := model.New(mc)
	if err != nil {
		return nil, st, err
	}
	tc := model.DefaultTrainConfig()
	tc.Epochs = epochs
	tc.DecayAt = epochs * 2 / 3
	tc.Seed = seed
	log := &epochLog{}
	tc.Log = log
	t1 := time.Now()
	log.last = t1
	hist, err := pred.TrainCtx(ctx, aug, tc)
	if err != nil {
		return nil, st, err
	}
	st.fitS = time.Since(t1).Seconds()
	st.epochS = log.durations()
	st.finalLoss = hist[len(hist)-1]
	if len(st.epochS) != epochs {
		return nil, st, fmt.Errorf("training logged %d of %d epochs", len(st.epochS), epochs)
	}
	return pred, st, nil
}

// trainPredictor is the serve_cells / flow_clips set-up predictor.
func trainPredictor() (*model.Predictor, trainStats, error) {
	seed := int64(corpusSeed)
	ls, err := pool(seed, setupPool)
	if err != nil {
		return nil, trainStats{}, err
	}
	sc := samplingConfig(seed, setupClusters, setupPer)
	t0 := time.Now()
	sel, _, err := selectCapped(ls, sc, setupDecomps)
	if err != nil {
		return nil, trainStats{}, err
	}
	selectS := time.Since(t0).Seconds()
	pred, st, err := labelAndFit(context.Background(), sel, sc, setupEpochs, seed)
	st.selectS = selectS
	return pred, st, err
}

// epochLog is a TrainConfig.Log writer that timestamps the per-epoch
// progress lines; an epoch's duration is the gap between consecutive lines.
type epochLog struct {
	mu    sync.Mutex
	last  time.Time
	epoch []float64
}

func (l *epochLog) Write(p []byte) (int, error) {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if strings.HasPrefix(string(p), "epoch ") {
		l.epoch = append(l.epoch, now.Sub(l.last).Seconds())
		l.last = now
	}
	return len(p), nil
}

func (l *epochLog) durations() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.epoch...)
}
