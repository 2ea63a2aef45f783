package ilt

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"testing"

	"ldmo/internal/decomp"
	"ldmo/internal/par"
	"ldmo/internal/runx"
	"ldmo/internal/simclock"
)

// setMaskLanes overrides the derived mask-lane count of o; the kernel lanes
// of its simulators keep their derived value.
func setMaskLanes(o *Optimizer, n int) { o.masks = par.NewPool(n) }

// bitsOf encodes v with gob, which writes every float64 it sends as its
// exact bit pattern: two values encode equal only if their slices (masks,
// images, parameters, EPEs) are Float64bits-equal, as are their scalar
// fields — except that gob omits a zero scalar field, so it does not tell a
// scalar 0 from -0.
func bitsOf(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// laneRecord is everything one sweep of runs leaves behind: the results, the
// recycled session's mask parameters after each run, and the cost clock.
type laneRecord struct {
	Results []Result
	Params  [][2][]float64
	Convs   int64
	CNNs    int64
	Seconds float64
}

// runLaneSweep runs, on one optimizer per configuration, every candidate of
// the two-row layout with the violation abort on, then each again as a
// forced full-budget rerun (abort off, as the flow's last rung does), then a
// warm-started pass seeded with the reruns' masks.
func runLaneSweep(t *testing.T, workers string, maskLanes int) laneRecord {
	t.Helper()
	t.Setenv(par.EnvWorkers, workers)
	t.Setenv(EnvWarm, "on")
	l := twoRowLayout()
	cands, err := decomp.NewGenerator().Generate(l)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()
	cfg.MaxIters = 9
	opt, err := NewOptimizer(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if maskLanes > 0 {
		setMaskLanes(opt, maskLanes)
	}
	clock := simclock.New(simclock.DefaultModel())
	opt.SetClock(clock)
	var rec laneRecord
	run := func(o *Optimizer, d decomp.Decomposition) Result {
		r := o.Run(d)
		rec.Results = append(rec.Results, r)
		rec.Params = append(rec.Params, [2][]float64{
			append([]float64(nil), o.spare.p[0]...),
			append([]float64(nil), o.spare.p[1]...),
		})
		return r
	}
	for _, d := range cands {
		run(opt, d)
	}
	opt.SetAbortOnViolation(false)
	var forced []Result
	for _, d := range cands {
		forced = append(forced, run(opt, d))
	}
	for i, d := range cands {
		wcfg := cfg
		wcfg.Init = &fieldInit{w1: forced[i].M1.Data, w2: forced[i].M2.Data, ok: true}
		wcfg.ConvergeWindow = DefaultConvergeWindow
		warm, err := NewOptimizer(l, wcfg)
		if err != nil {
			t.Fatal(err)
		}
		if maskLanes > 0 {
			setMaskLanes(warm, maskLanes)
		}
		warm.SetClock(clock)
		run(warm, d)
	}
	rec.Convs = clock.Count(simclock.CostConvolution)
	rec.CNNs = clock.Count(simclock.CostCNNInference)
	rec.Seconds = clock.Seconds()
	return rec
}

// TestMaskParallelMatchesSerial: every split of the worker budget between
// mask lanes and kernel lanes produces Float64bits-identical masks, mask
// parameters, traces, Results and cost-clock totals to the fully serial
// loop, over aborting runs, forced full-budget reruns and warm starts.
func TestMaskParallelMatchesSerial(t *testing.T) {
	ref := runLaneSweep(t, "1", 0) // 1 mask lane x 1 kernel lane
	aborted, warmed := false, false
	for _, r := range ref.Results {
		aborted = aborted || r.Aborted
		warmed = warmed || r.WarmStart
	}
	if !aborted || !warmed {
		t.Fatalf("sweep lost coverage: aborted=%v warm=%v", aborted, warmed)
	}
	want := bitsOf(t, ref)
	for _, c := range []struct {
		name      string
		workers   string
		maskLanes int
	}{
		{"masks2xkernels1/derived", "2", 0},
		{"masks2xkernels2/derived", "4", 0},
		{"masks2xkernels1/forced", "1", 2},
		{"masks1xkernels2/forced", "4", 1},
	} {
		got := runLaneSweep(t, c.workers, c.maskLanes)
		if !bytes.Equal(bitsOf(t, got), want) {
			for i := range ref.Results {
				if !bytes.Equal(bitsOf(t, got.Results[i]), bitsOf(t, ref.Results[i])) {
					t.Errorf("%s: run %d result differs from serial", c.name, i)
				}
				if !bytes.Equal(bitsOf(t, got.Params[i]), bitsOf(t, ref.Params[i])) {
					t.Errorf("%s: run %d mask parameters differ from serial", c.name, i)
				}
			}
			t.Fatalf("%s: clock %d/%d/%v, serial %d/%d/%v", c.name,
				got.Convs, got.CNNs, got.Seconds, ref.Convs, ref.CNNs, ref.Seconds)
		}
	}
}

// TestLaneBudgetDerived pins the split of the worker budget.
func TestLaneBudgetDerived(t *testing.T) {
	for _, c := range []struct {
		workers               string
		masks, kernelsPerMask int
	}{{"1", 1, 1}, {"2", 2, 1}, {"3", 2, 1}, {"4", 2, 2}, {"8", 2, 2}} {
		t.Setenv(par.EnvWorkers, c.workers)
		_, opt := firstCand(t)
		if opt.masks.Size() != c.masks {
			t.Errorf("workers=%s: %d mask lanes, want %d", c.workers, opt.masks.Size(), c.masks)
		}
		for i, sim := range opt.sims {
			// The bank has two kernels, which caps each simulator's lanes.
			if sim.Workers() != c.kernelsPerMask {
				t.Errorf("workers=%s: mask %d simulator runs %d kernel lanes, want %d",
					c.workers, i, sim.Workers(), c.kernelsPerMask)
			}
		}
	}
}

// sessionState is the optimizer state a fault must leave as the serial
// one-mask-at-a-time loop does.
type sessionState struct {
	P          [2][]float64
	Iter       int
	TraceLen   int
	Fault      bool
	StepScale  float64
	NaNRetries int
}

func stateOf(s *Session) sessionState {
	return sessionState{
		P:          [2][]float64{append([]float64(nil), s.p[0]...), append([]float64(nil), s.p[1]...)},
		Iter:       s.iter,
		TraceLen:   len(s.trace),
		Fault:      s.fault,
		StepScale:  s.stepScale,
		NaNRetries: s.nanRetries,
	}
}

// TestMaskLaneGradientFault: a non-finite gradient in one mask only leaves
// the session exactly where the serial loop leaves it — the masks before the
// faulty one updated, the faulty one and every later one untouched, the
// fault latched — and recover rolls back to the last good boundary. One mask
// lane and two give the same state bit for bit.
func TestMaskLaneGradientFault(t *testing.T) {
	defer func() { gradHook = nil }()
	for bad := 0; bad < 2; bad++ {
		var byLanes [2][2]sessionState // [lanes-1]{after fault, after recover}
		for lanes := 1; lanes <= 2; lanes++ {
			d, opt := firstCand(t)
			setMaskLanes(opt, lanes)
			_, twin := firstCand(t)
			s, c := opt.NewSession(d), twin.NewSession(d)
			s.Step(3)
			c.Step(3)
			s.markGood()
			before := stateOf(s)
			gradHook = func(mask int, g []float64) {
				if mask == bad {
					g[len(g)/2] = math.Inf(1)
				}
			}
			s.Step(1)
			gradHook = nil
			c.Step(1)
			clean := stateOf(c)

			got := stateOf(s)
			if !got.Fault || got.Iter != before.Iter+1 || got.TraceLen != before.TraceLen+1 {
				t.Fatalf("bad=%d lanes=%d: fault=%v iter=%d trace=%d after the faulty step",
					bad, lanes, got.Fault, got.Iter, got.TraceLen)
			}
			for i := 0; i < 2; i++ {
				want := before.P[i] // the faulty mask and every later one stay put
				if i < bad {
					want = clean.P[i] // earlier masks took their clean update
				}
				if !bytes.Equal(bitsOf(t, got.P[i]), bitsOf(t, want)) {
					t.Fatalf("bad=%d lanes=%d: mask %d parameters differ from the serial order", bad, lanes, i)
				}
			}
			if s.Step(1) != 0 {
				t.Fatalf("bad=%d lanes=%d: a latched session kept stepping", bad, lanes)
			}
			if !s.recover() {
				t.Fatalf("bad=%d lanes=%d: first recover refused", bad, lanes)
			}
			back := stateOf(s)
			want := before
			want.StepScale, want.NaNRetries = before.StepScale/2, 1
			if !bytes.Equal(bitsOf(t, back), bitsOf(t, want)) {
				t.Fatalf("bad=%d lanes=%d: recover did not restore the last good state", bad, lanes)
			}
			byLanes[lanes-1] = [2]sessionState{got, back}
		}
		if !bytes.Equal(bitsOf(t, byLanes[0]), bitsOf(t, byLanes[1])) {
			t.Fatalf("bad=%d: one and two mask lanes leave different states", bad)
		}
	}
}

// TestMaskLanePanicReachesCaller: a panic inside one mask lane is re-raised
// on the Step caller as a *runx.PanicError carrying the original value, so
// the flow's ladders classify it as they classify any worker panic.
func TestMaskLanePanicReachesCaller(t *testing.T) {
	defer func() { gradHook = nil }()
	sentinel := errors.New("mask lane boom")
	d, opt := firstCand(t)
	setMaskLanes(opt, 2)
	s := opt.NewSession(d)
	gradHook = func(mask int, _ []float64) {
		if mask == 1 {
			panic(sentinel)
		}
	}
	var got any
	func() {
		defer func() { got = recover() }()
		s.Step(1)
	}()
	pe, ok := got.(*runx.PanicError)
	if !ok {
		t.Fatalf("Step panicked with %T (%v), want *runx.PanicError", got, got)
	}
	if pe.Value != sentinel {
		t.Fatalf("panic value %v, want %v", pe.Value, sentinel)
	}
}
