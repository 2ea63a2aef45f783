package ilt

import (
	"math"
	"runtime"
	"testing"

	"ldmo/internal/decomp"
	"ldmo/internal/fft"
	"ldmo/internal/layout"
	"ldmo/internal/litho"
)

// optimizerCandidates generates the decomposition candidates of l, capped so
// the cross-engine sweeps stay fast.
func optimizerCandidates(l layout.Layout) ([]decomp.Decomposition, error) {
	cands, err := decomp.NewGenerator().Generate(l)
	if err != nil {
		return nil, err
	}
	if len(cands) > 3 {
		cands = cands[:3]
	}
	return cands, nil
}

// allocBytes reports cumulative heap bytes allocated by this test process.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// TestEngineGoldenILT is the decision-level golden guard at the optimizer
// layer: a full ILT run under the real-input spectral engine makes exactly
// the same discrete decisions — per-iteration EPE violation counts, final
// violation verdicts, abort behavior — as the complex reference engine, and
// its continuous outputs (L2, final masks) agree to tolerance.
func TestEngineGoldenILT(t *testing.T) {
	cell, err := layout.Cell("AOI211_X1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Litho = litho.FastParams()
	cfg.MaxIters = 9
	cfg.AbortOnViolation = false

	run := func(mode string) []Result {
		t.Setenv(fft.EnvMode, mode)
		opt, err := NewOptimizer(cell, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cands, err := optimizerCandidates(cell)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]Result, len(cands))
		for i, d := range cands {
			out[i] = opt.Run(d)
		}
		return out
	}
	ref := run(fft.ModeComplex)
	got := run("")
	if len(ref) != len(got) {
		t.Fatalf("candidate counts differ: %d vs %d", len(got), len(ref))
	}
	for i := range ref {
		r, g := ref[i], got[i]
		if g.EPE.Violations != r.EPE.Violations {
			t.Errorf("cand %d: EPE violations %d (real) vs %d (complex)", i, g.EPE.Violations, r.EPE.Violations)
		}
		if g.Violations != r.Violations {
			t.Errorf("cand %d: print verdicts %+v (real) vs %+v (complex)", i, g.Violations, r.Violations)
		}
		if g.Aborted != r.Aborted || g.Iters != r.Iters {
			t.Errorf("cand %d: aborted/iters %v/%d vs %v/%d", i, g.Aborted, g.Iters, r.Aborted, r.Iters)
		}
		if len(g.Trace) != len(r.Trace) {
			t.Fatalf("cand %d: trace lengths %d vs %d", i, len(g.Trace), len(r.Trace))
		}
		for j := range r.Trace {
			if g.Trace[j].EPEViolations != r.Trace[j].EPEViolations {
				t.Errorf("cand %d iter %d: EPE %d vs %d", i, j, g.Trace[j].EPEViolations, r.Trace[j].EPEViolations)
			}
		}
		if rel := math.Abs(g.L2-r.L2) / (math.Abs(r.L2) + 1); rel > 1e-9 {
			t.Errorf("cand %d: L2 %g vs %g (rel %g)", i, g.L2, r.L2, rel)
		}
		for j := range r.Printed.Data {
			if d := math.Abs(g.Printed.Data[j] - r.Printed.Data[j]); d > 1e-9 {
				t.Fatalf("cand %d: printed image differs at %d by %g", i, j, d)
			}
		}
	}
}

// TestSessionStepSteadyStateAllocs pins the ILT inner loop's allocation
// behavior: after the first violation-check chunk has warmed the session,
// further gradient steps allocate only what the EPE meter needs (the trace
// is preallocated to the full budget).
func TestSessionStepSteadyStateAllocs(t *testing.T) {
	cell, err := layout.Cell("INV_X1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Litho = litho.FastParams()
	cfg.MaxIters = 64
	opt, err := NewOptimizer(cell, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := optimizerCandidates(cell)
	if err != nil {
		t.Fatal(err)
	}
	s := opt.NewSession(cands[0])
	s.Step(3) // warm
	before := allocBytes()
	s.Step(8)
	grew := allocBytes() - before
	// The fft/litho layers must contribute nothing; the budget below is the
	// EPE meter's small per-measure bookkeeping only (well under one raster).
	raster := uint64(len(opt.target.Data) * 8)
	if grew > raster {
		t.Errorf("8 ILT steps allocated %d bytes, more than one %d-byte raster", grew, raster)
	}
}
