package main

import (
	"fmt"
	"math/rand"
	"time"

	"ldmo/internal/decomp"
	"ldmo/internal/fft"
	"ldmo/internal/grid"
	"ldmo/internal/ilt"
	"ldmo/internal/layout"
	"ldmo/internal/litho"
	"ldmo/internal/model"
	"ldmo/internal/tensor"
)

// plane is one FFT plane size the workloads run on: pN is an N x N padded
// transform. p128 is a tile at 8 nm (train labeling), p256 a tile at 4 nm (a
// serve_cells job), p512 a 2x2-tile clip at 4 nm (flow_clips).
type plane struct {
	name   string
	res    int // nm per pixel
	window int // layout window edge, nm
}

var planes = []plane{
	{"p128", 8, layout.TileNM},
	{"p256", 4, layout.TileNM},
	{"p512", 4, 2 * layout.TileNM},
}

func (p plane) params() litho.Params {
	lp := litho.DefaultParams()
	lp.Resolution = p.res
	return lp
}

// Per-call kernel timings report the median of repeated calls: at least
// minReps calls, and more until kernelBudget has passed.
const (
	minReps      = 7
	kernelBudget = 150 * time.Millisecond
)

// timeCalls times f repeatedly (prep, when non-nil, runs untimed before each
// call) and returns the median call duration.
func timeCalls(prep, f func()) time.Duration {
	var ds []float64
	start := time.Now()
	for len(ds) < minReps || time.Since(start) < kernelBudget {
		if prep != nil {
			prep()
		}
		t := time.Now()
		f()
		ds = append(ds, float64(time.Since(t)))
	}
	return time.Duration(median(ds))
}

func randSlice(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64()
	}
	return out
}

// putKernels times the fft, litho, ilt-step, tensor and model kernels
// directly and prints their per-layer metrics. clip supplies the p512 ILT
// layout; pred is the workload's predictor.
func putKernels(b *bench, clip layout.Layout, pred *model.Predictor) error {
	rng := rand.New(rand.NewSource(b.seed))
	for _, p := range planes {
		lp := p.params()
		px := p.window / p.res
		ks := litho.MaxKernelSize(litho.BuildKernelBank(lp))
		plan := fft.PlanFor(px, px, ks, ks)
		if plan.PW != plan.PH || fmt.Sprintf("p%d", plan.PW) != p.name {
			return fmt.Errorf("plane %s: plan is %dx%d", p.name, plan.PW, plan.PH)
		}
		s := plan.NewScratch()
		img := randSlice(rng, px*px)
		out := make([]float64, px*px)
		kfft := make([]complex128, plan.SpecLen())
		for i := range kfft {
			kfft[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		spec := append([]complex128(nil), plan.ForwardInto(s, img)...)
		freq := make([]complex128, len(spec))
		dst := make([]complex128, len(spec))

		b.put("fft.forward_ms."+p.name, "ms", ms(timeCalls(nil, func() { plan.ForwardInto(s, img) })))
		b.put("fft.apply_spec_ms."+p.name, "ms", ms(timeCalls(nil, func() { plan.ApplySpecWith(s, spec, kfft, out, false) })))
		b.put("fft.inverse_spec_ms."+p.name, "ms", ms(timeCalls(func() { copy(freq, spec) }, func() { plan.InverseSpec(s, freq, out) })))
		b.put("fft.mulconj_us."+p.name, "us", float64(timeCalls(nil, func() { fft.MulConj(dst, spec, kfft) }))/float64(time.Microsecond))
		// Computed, not measured: the half-spectrum plane every pass of a
		// transform sweeps, complex128 elements.
		b.put("fft.bytes_per_call."+p.name, "B_computed", float64(plan.SpecLen()*16))

		sim, err := litho.NewSimulator(px, px, lp)
		if err != nil {
			return err
		}
		fields := sim.NewFields()
		mask := randSlice(rng, px*px)
		aerial := make([]float64, px*px)
		gradI := randSlice(rng, px*px)
		gradM := make([]float64, px*px)
		b.put("litho.aerial_ms."+p.name, "ms", ms(timeCalls(nil, func() { sim.Aerial(mask, aerial, fields) })))
		sim.Aerial(mask, aerial, fields)
		b.put("litho.aerial_backward_ms."+p.name, "ms", ms(timeCalls(nil, func() { sim.AerialBackward(gradI, fields, gradM) })))

		l, err := layout.Cell("NAND3_X2")
		if err != nil {
			return err
		}
		if p.window != layout.TileNM {
			l = clip
		}
		step, err := stepTime(l, lp)
		if err != nil {
			return fmt.Errorf("ilt step %s: %w", p.name, err)
		}
		b.put("ilt.step_ms."+p.name, "ms", ms(step))
	}
	putTensor(b, rng)
	return putInfer(b, pred)
}

// stepTime returns the median duration of one ILT gradient step,
// Session.Step(1), on the first candidate of l under process lp.
func stepTime(l layout.Layout, lp litho.Params) (time.Duration, error) {
	cands, err := decomp.NewGenerator().Generate(l)
	if err != nil {
		return 0, err
	}
	cfg := ilt.DefaultConfig()
	cfg.Litho = lp
	opt, err := ilt.NewOptimizer(l, cfg)
	if err != nil {
		return 0, err
	}
	s := opt.NewSession(cands[0])
	return timeCalls(func() {
		if s.Remaining() == 0 {
			s = opt.NewSession(cands[0])
		}
	}, func() { s.Step(1) }), nil
}

// putTensor times the GEMM and im2col/col2im kernels at the Tiny network's
// stem convolution (1 -> 8 channels, 7x7, stride 2, 64x64 input), its
// largest GEMM, over one training batch.
func putTensor(b *bench, rng *rand.Rand) {
	cfg := model.TinyConfig()
	batch := model.DefaultTrainConfig().BatchSize
	g := tensor.ConvGeom{InC: 1, InH: cfg.InputSize, InW: cfg.InputSize, K: 7, Stride: 2, Pad: 3}
	m, k := cfg.StemChannels, g.InC*g.K*g.K
	n := batch * g.OutH() * g.OutW()
	imgs := randSlice(rng, batch*g.InC*g.InH*g.InW)
	col := make([]float64, k*n)
	w := randSlice(rng, m*k)
	out := make([]float64, m*n)
	tensor.Im2ColBatch(imgs, batch, g, col)
	gemm := timeCalls(nil, func() { tensor.MatMul(w, m, k, col, n, out) })
	b.put("tensor.matmul_gflops", "GFLOP/s", 2*float64(m*k*n)/gemm.Seconds()/1e9)
	b.put("tensor.im2col_ms", "ms", ms(timeCalls(nil, func() { tensor.Im2ColBatch(imgs, batch, g, col) })))
	b.put("tensor.col2im_ms", "ms", ms(timeCalls(nil, func() { tensor.Col2ImBatch(col, batch, g, imgs) })))
}

// putInfer times predictor inference per image at batch 1 and at batch 80,
// the size of a flow_clips candidate batch.
func putInfer(b *bench, pred *model.Predictor) error {
	clip, err := makeClips(corpusSeed, 1)
	if err != nil {
		return err
	}
	cands, err := decomp.NewGenerator().Generate(clip[0])
	if err != nil {
		return err
	}
	imgs := make([]*grid.Grid, 80)
	for i := range imgs {
		imgs[i] = cands[i%len(cands)].GrayImage(4, model.TinyConfig().InputSize)
	}
	for _, bs := range []int{1, 80} {
		out := make([]float64, bs)
		d := timeCalls(nil, func() { pred.PredictBatchInto(imgs[:bs], out) })
		b.put(fmt.Sprintf("model.infer_ms_per_image.b%d", bs), "ms", ms(d)/float64(bs))
	}
	return nil
}
