package fft

import (
	"math/rand"
	"sync"
	"testing"
)

// TestWithVariantsMatchSerial checks that the scratch-threaded entry points
// produce bitwise-identical results to the plan's serial methods.
func TestWithVariantsMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	w, h, kw, kh := 20, 14, 7, 5
	img := randImage(rng, w*h)
	kernel := randImage(rng, kw*kh)
	p := NewPlan(w, h, kw, kh)
	kf := p.TransformKernel(kernel)
	s := p.NewScratch()

	serial := make([]float64, w*h)
	scratch := make([]float64, w*h)

	p.Convolve(img, kf, serial)
	p.ConvolveWith(s, img, kf, scratch)
	for i := range serial {
		if serial[i] != scratch[i] {
			t.Fatalf("ConvolveWith differs at %d: %g vs %g", i, scratch[i], serial[i])
		}
	}
	p.Correlate(img, kf, serial)
	p.CorrelateWith(s, img, kf, scratch)
	for i := range serial {
		if serial[i] != scratch[i] {
			t.Fatalf("CorrelateWith differs at %d: %g vs %g", i, scratch[i], serial[i])
		}
	}
}

// TestForwardSpectrumReuse verifies that a spectrum from one scratch can be
// fanned out through ApplySpecWith on other scratches — the simulator's
// shared-mask-transform pattern — including concurrently.
func TestForwardSpectrumReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	w, h, kw, kh := 24, 24, 5, 5
	img := randImage(rng, w*h)
	p := NewPlan(w, h, kw, kh)
	const nk = 4
	kffts := make([][]complex128, nk)
	want := make([][]float64, nk)
	for k := range kffts {
		kffts[k] = p.TransformKernel(randImage(rng, kw*kh))
		want[k] = make([]float64, w*h)
		p.Convolve(img, kffts[k], want[k])
	}

	spec := p.Forward(img)
	got := make([][]float64, nk)
	var wg sync.WaitGroup
	for k := 0; k < nk; k++ {
		got[k] = make([]float64, w*h)
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			s := p.NewScratch()
			p.ApplySpecWith(s, spec, kffts[k], got[k], false)
		}(k)
	}
	wg.Wait()
	for k := range want {
		for i := range want[k] {
			if got[k][i] != want[k][i] {
				t.Fatalf("kernel %d concurrent ApplySpecWith differs at %d", k, i)
			}
		}
	}
}

// TestForwardAliasesPlanScratch documents the new Forward contract: the
// returned spectrum is plan scratch, overwritten by the next Forward.
func TestForwardAliasesPlanScratch(t *testing.T) {
	p := NewPlan(8, 8, 3, 3)
	a := p.Forward(make([]float64, 64))
	img := make([]float64, 64)
	img[0] = 1
	b := p.Forward(img)
	if &a[0] != &b[0] {
		t.Fatal("Forward should reuse the plan's spectrum scratch")
	}
}

// TestHotPathZeroAlloc asserts the perf contract of this layer: once a plan
// (and any worker scratch) exists, Forward/ApplySpec/Convolve/Correlate do
// not allocate.
func TestHotPathZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	w, h, kw, kh := 32, 32, 7, 7
	img := randImage(rng, w*h)
	kernel := randImage(rng, kw*kh)
	p := NewPlan(w, h, kw, kh)
	kf := p.TransformKernel(kernel)
	out := make([]float64, w*h)
	s := p.NewScratch()

	cases := map[string]func(){
		"Forward":       func() { p.Forward(img) },
		"Convolve":      func() { p.Convolve(img, kf, out) },
		"Correlate":     func() { p.Correlate(img, kf, out) },
		"ConvolveWith":  func() { p.ConvolveWith(s, img, kf, out) },
		"CorrelateWith": func() { p.CorrelateWith(s, img, kf, out) },
		"ApplySpecWith": func() { p.ApplySpecWith(s, p.Forward(img), kf, out, true) },
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(20, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f objects per call, want 0", name, allocs)
		}
	}
}

func BenchmarkPlanForward(b *testing.B) {
	w, h := 224, 224
	img := make([]float64, w*h)
	for i := range img {
		img[i] = float64(i%13) / 13
	}
	p := NewPlan(w, h, 31, 31)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(img)
	}
}
