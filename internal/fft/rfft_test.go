package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// naiveDFT is the O(n^2) reference transform.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k) / float64(n) * float64(j)
			s += x[j] * cmplx.Exp(complex(0, ang))
		}
		out[k] = s
	}
	return out
}

// TestRoundTripAccuracy4096 is the twiddle-accuracy property the table
// overhaul exists for: at n=4096 the multiplicative recurrence the old
// transform used accumulates error past 1e-12; the Sincos tables stay well
// below it.
func TestRoundTripAccuracy4096(t *testing.T) {
	const n = 4096
	rng := rand.New(rand.NewSource(1))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	orig := append([]complex128(nil), x...)
	FFT(x)
	IFFT(x)
	for i := range x {
		if d := cmplx.Abs(x[i] - orig[i]); d > 1e-12 {
			t.Fatalf("complex round-trip error %g at %d exceeds 1e-12", d, i)
		}
	}
}

func TestRFFTRoundTripAccuracy4096(t *testing.T) {
	const n = 4096
	rng := rand.New(rand.NewSource(2))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	twM, twN := tablesFor(n/2), tablesFor(n)
	spec := make([]complex128, n/2+1)
	rfftRow(spec, x, twM, twN, false)
	back := make([]float64, n)
	irfftRow(back, spec, twM, twN, false)
	for i := range x {
		if d := math.Abs(back[i] - x[i]); d > 1e-12 {
			t.Fatalf("real round-trip error %g at %d exceeds 1e-12", d, i)
		}
	}
}

// TestRFFTMatchesDFT checks the half spectrum against the naive DFT of the
// same real signal across sizes, including the degenerate ones.
func TestRFFTMatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		x := make([]float64, n)
		cx := make([]complex128, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			cx[i] = complex(x[i], 0)
		}
		want := naiveDFT(cx)
		got := make([]complex128, n/2+1)
		rfftRow(got, x, tablesFor(max(n/2, 1)), tablesFor(n), false)
		for k := range got {
			if d := cmplx.Abs(got[k] - want[k]); d > 1e-9 {
				t.Fatalf("n=%d: RFFT[%d] = %v, DFT = %v (|diff| %g)", n, k, got[k], want[k], d)
			}
		}
	}
}

// TestFFTMatchesDFTSizes is the complex-path counterpart over the same size
// sweep (the historical test pinned n=16 only).
func TestFFTMatchesDFTSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 8, 32, 128} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := naiveDFT(x)
		got := append([]complex128(nil), x...)
		FFT(got)
		for k := range got {
			if cmplx.Abs(got[k]-want[k]) > 1e-9 {
				t.Fatalf("n=%d: FFT[%d] = %v, DFT = %v", n, k, got[k], want[k])
			}
		}
	}
}

// TestRFFTParseval checks energy conservation on the half spectrum: interior
// bins count twice (they stand for a conjugate pair), the DC and Nyquist
// bins once.
func TestRFFTParseval(t *testing.T) {
	const n = 512
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, n)
	var tEnergy float64
	for i := range x {
		x[i] = rng.NormFloat64()
		tEnergy += x[i] * x[i]
	}
	spec := make([]complex128, n/2+1)
	rfftRow(spec, x, tablesFor(n/2), tablesFor(n), false)
	var fEnergy float64
	for k, v := range spec {
		e := real(v)*real(v) + imag(v)*imag(v)
		if k == 0 || k == n/2 {
			fEnergy += e
		} else {
			fEnergy += 2 * e
		}
	}
	if math.Abs(fEnergy/float64(n)-tEnergy) > 1e-9*tEnergy {
		t.Fatalf("Parseval violated: %g vs %g", fEnergy/float64(n), tEnergy)
	}
}

// planModes runs fn once per spectral engine mode.
func planModes(t *testing.T, fn func(t *testing.T)) {
	t.Run("real", func(t *testing.T) {
		t.Setenv(EnvMode, "")
		fn(t)
	})
	t.Run("complex", func(t *testing.T) {
		t.Setenv(EnvMode, ModeComplex)
		fn(t)
	})
}

// TestPlanBothModesMatchDirect runs the convolution oracle under both
// engines; the historical direct-reference tests only exercise the default.
func TestPlanBothModesMatchDirect(t *testing.T) {
	planModes(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(6))
		w, h, kw, kh := 23, 17, 9, 5
		img := randImage(rng, w*h)
		kernel := randImage(rng, kw*kh)
		p := NewPlan(w, h, kw, kh)
		kf := p.TransformKernel(kernel)
		got := make([]float64, w*h)
		want := make([]float64, w*h)
		p.Convolve(img, kf, got)
		DirectConvolve(img, w, h, kernel, kw, kh, want)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("convolve mismatch at %d: %g vs %g", i, got[i], want[i])
			}
		}
		p.Correlate(img, kf, got)
		DirectCorrelate(img, w, h, kernel, kw, kh, want)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("correlate mismatch at %d: %g vs %g", i, got[i], want[i])
			}
		}
	})
}

// TestPlanModesAgree compares the two engines against each other on the same
// inputs — the field-level half of the golden-output contract (<= 1e-9).
func TestPlanModesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w, h, kw, kh := 40, 28, 11, 7
	img := randImage(rng, w*h)
	kernel := randImage(rng, kw*kh)

	outs := map[string][]float64{}
	for _, mode := range []string{"", ModeComplex} {
		t.Setenv(EnvMode, mode)
		p := NewPlan(w, h, kw, kh)
		if p.RealMode() != (mode == "") {
			t.Fatalf("mode %q: RealMode() = %v", mode, p.RealMode())
		}
		kf := p.TransformKernel(kernel)
		out := make([]float64, w*h)
		p.Convolve(img, kf, out)
		outs[mode] = out
	}
	for i := range outs[""] {
		if d := math.Abs(outs[""][i] - outs[ModeComplex][i]); d > 1e-9 {
			t.Fatalf("engines disagree at %d by %g", i, d)
		}
	}
}

// TestInverseSpecFusedMatchesPerKernel verifies the fused-gradient identity
// the simulator's backward pass relies on: one inverse of the accumulated
// products equals the sum of per-kernel correlations.
func TestInverseSpecFusedMatchesPerKernel(t *testing.T) {
	planModes(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(8))
		w, h, kw, kh := 26, 22, 7, 7
		p := NewPlan(w, h, kw, kh)
		const nk = 3
		imgs := make([][]float64, nk)
		kffts := make([][]complex128, nk)
		want := make([]float64, w*h)
		tmp := make([]float64, w*h)
		for k := 0; k < nk; k++ {
			imgs[k] = randImage(rng, w*h)
			kffts[k] = p.TransformKernel(randImage(rng, kw*kh))
			p.Correlate(imgs[k], kffts[k], tmp)
			for i := range want {
				want[i] += tmp[i]
			}
		}
		s := p.NewScratch()
		acc := make([]complex128, p.SpecLen())
		for k := 0; k < nk; k++ {
			AccumulateConj(acc, p.ForwardInto(s, imgs[k]), kffts[k])
		}
		got := make([]float64, w*h)
		p.InverseSpec(s, acc, got)
		for i := range want {
			if d := math.Abs(got[i] - want[i]); d > 1e-9 {
				t.Fatalf("fused gradient differs at %d by %g", i, d)
			}
		}
	})
}

func TestAccumulateConjLengthPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	AccumulateConj(make([]complex128, 4), make([]complex128, 4), make([]complex128, 3))
}

func TestSpecLenHalvedInRealMode(t *testing.T) {
	t.Setenv(EnvMode, "")
	p := NewPlan(224, 224, 31, 31)
	if want := (p.PW/2 + 1) * p.PH; p.SpecLen() != want {
		t.Fatalf("real SpecLen = %d, want %d", p.SpecLen(), want)
	}
	t.Setenv(EnvMode, ModeComplex)
	pc := NewPlan(224, 224, 31, 31)
	if want := pc.PW * pc.PH; pc.SpecLen() != want {
		t.Fatalf("complex SpecLen = %d, want %d", pc.SpecLen(), want)
	}
	if 2*p.SpecLen() >= 3*pc.SpecLen()/2 {
		t.Fatalf("half spectrum %d not roughly half of %d", p.SpecLen(), pc.SpecLen())
	}
}

// TestFFT2DZeroAllocSteadyState pins the package-level 2-D entry points to
// the zero-alloc contract: both passes run in place, so once the twiddle
// tables exist a call allocates nothing.
func TestFFT2DZeroAllocSteadyState(t *testing.T) {
	data := make([]complex128, 64*32)
	FFT2D(data, 64, 32) // warm the tables
	if allocs := testing.AllocsPerRun(50, func() {
		FFT2D(data, 64, 32)
		IFFT2D(data, 64, 32)
	}); allocs != 0 {
		t.Errorf("FFT2D+IFFT2D allocate %.1f objects per call, want 0", allocs)
	}
}

// TestInverseSpecZeroAlloc pins the fused-backward entry to the same
// zero-alloc contract as the rest of the hot path.
func TestInverseSpecZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := NewPlan(32, 32, 7, 7)
	img := randImage(rng, 32*32)
	kf := p.TransformKernel(randImage(rng, 7*7))
	s := p.NewScratch()
	acc := make([]complex128, p.SpecLen())
	out := make([]float64, 32*32)
	if allocs := testing.AllocsPerRun(20, func() {
		AccumulateConj(acc, p.ForwardInto(s, img), kf)
		p.InverseSpec(s, acc, out)
	}); allocs != 0 {
		t.Errorf("fused accumulate+inverse allocates %.1f objects per call, want 0", allocs)
	}
}

func BenchmarkFFTPlanConvolve224(b *testing.B) { benchConvolve(b, false) }

func BenchmarkFFTPlanConvolve224Complex(b *testing.B) { benchConvolve(b, true) }

func benchConvolve(b *testing.B, complexMode bool) {
	if complexMode {
		b.Setenv(EnvMode, ModeComplex)
	} else {
		b.Setenv(EnvMode, "")
	}
	w, h := 224, 224
	img := make([]float64, w*h)
	for i := range img {
		img[i] = float64(i%13) / 13
	}
	kernel := make([]float64, 31*31)
	for i := range kernel {
		kernel[i] = 1.0 / float64(len(kernel))
	}
	p := NewPlan(w, h, 31, 31)
	kf := p.TransformKernel(kernel)
	out := make([]float64, w*h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Convolve(img, kf, out)
	}
}
