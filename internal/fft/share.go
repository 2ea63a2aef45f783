package fft

import (
	"os"
	"sync"
)

// Plans of the same geometry and spectral mode are interchangeable: their
// twiddle tables are already process-shared (tables.go), and everything else
// a Plan holds — padded geometry, mode flag — is immutable after
// construction. PlanFor extends the sharing to the Plan itself, so the many
// simulators of a pipelined flow (one per ILT lane per layout) stop
// rebuilding identical plans and kernel transforms per task.
var (
	planMu    sync.Mutex
	planCache = map[planKey]*Plan{}
)

type planKey struct {
	w, h, kw, kh int
	realMode     bool
	asm          bool // vector engine at lookup time (see EnvASM)
}

// PlanFor returns the process-wide shared plan for the given convolution
// geometry under the current LDMO_FFT mode, building it on first use.
//
// TransformKernel needs no scratch and is safe on a shared plan; every other
// access must go through the *With methods with a caller-owned Scratch
// (NewScratch), which only read the plan's immutable state and are safe from
// any number of goroutines. The serial convenience methods (Forward,
// Convolve, Correlate, ApplySpec) use the plan's embedded scratch and are
// NOT safe on a shared plan.
func PlanFor(w, h, kw, kh int) *Plan {
	key := planKey{w: w, h: h, kw: kw, kh: kh,
		realMode: os.Getenv(EnvMode) != ModeComplex,
		asm:      vecEnabled()}
	planMu.Lock()
	defer planMu.Unlock()
	if p := planCache[key]; p != nil {
		return p
	}
	p := NewPlan(w, h, kw, kh)
	planCache[key] = p
	return p
}
