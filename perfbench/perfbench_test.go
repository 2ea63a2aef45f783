package main

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"ldmo/internal/geom"
	"ldmo/internal/grid"
	"ldmo/internal/layout"
	"ldmo/internal/serve"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if median(nil) != 0 || percentile(nil, 0.5) != 0 {
		t.Error("empty input should give 0")
	}
}

// TestTailRule pins the sample-count rule: the reported tail is the highest
// percentile with at least ten samples beyond its nearest rank.
func TestTailRule(t *testing.T) {
	cases := []struct {
		n     int
		level float64
		ok    bool
	}{
		{19, 0, false}, // the median of 19 has only 9 samples beyond it
		{20, 0.5, true},
		{39, 0.5, true}, // p75 of 39 has 9 beyond
		{40, 0.75, true},
		{100, 0.9, true},
		{199, 0.9, true},
		{200, 0.95, true},
		{1000, 0.99, true},
		{10000, 0.999, true},
	}
	for _, c := range cases {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		level, value, ok := tail(xs)
		if ok != c.ok || level != c.level {
			t.Errorf("n=%d: tail level %v ok=%v, want %v ok=%v", c.n, level, ok, c.level, c.ok)
			continue
		}
		if ok && value != percentile(xs, level) {
			t.Errorf("n=%d: tail value %v, want p%v = %v", c.n, value, level, percentile(xs, level))
		}
	}
}

func warmSpecs() []serve.JobSpec {
	rng := rand.New(rand.NewSource(99))
	var out []serve.JobSpec
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		s, err := genSpecWithContacts(rng, 5+i, seen)
		if err != nil {
			panic(err)
		}
		out = append(out, s)
	}
	return out
}

func TestArrivalScheduleReproducible(t *testing.T) {
	warm := warmSpecs()
	a, err := arrivalSchedule(7, 20, 0.8, warm)
	if err != nil {
		t.Fatal(err)
	}
	b, err := arrivalSchedule(7, 20, 0.8, warm)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	c, err := arrivalSchedule(8, 20, 0.8, warm)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds resubmitted the same specs")
	}
	for i := range a {
		if a[i].At != c[i].At || a[i].Hit != c[i].Hit || (!a[i].Hit && a[i].Spec.ID() != c[i].Spec.ID()) {
			t.Fatalf("arrival %d: seeds differ beyond the hit specs", i)
		}
	}

	if len(a) != 21 {
		t.Fatalf("%d arrivals, want 16 fresh + 5 hits", len(a))
	}
	if last := a[len(a)-1]; last.At != 20*time.Second || last.Hit {
		t.Errorf("last arrival at %v (hit %v), want a fresh job at the end of the window", last.At, last.Hit)
	}
	done := map[string]bool{}
	for _, s := range warm {
		done[s.ID()] = true
	}
	fresh := map[string]bool{}
	hits := 0
	for i, x := range a {
		if x.At < 0 || x.At > 20*time.Second || (i > 0 && x.At < a[i-1].At) {
			t.Fatalf("arrival %d at %v: outside the window or out of order", i, x.At)
		}
		id := x.Spec.ID()
		if x.Hit {
			hits++
			if !done[id] {
				t.Errorf("hit arrival %d resubmits a spec that is not done", i)
			}
			continue
		}
		if done[id] || fresh[id] {
			t.Errorf("fresh arrival %d repeats spec %s", i, id)
		}
		fresh[id] = true
		if _, err := x.Spec.Layout(); err != nil {
			t.Errorf("fresh arrival %d: %v", i, err)
		}
	}
	if hits != 5 {
		t.Errorf("%d hits, want a quarter of 21", hits)
	}
}

// TestFreshSpecsMix checks that fresh jobs alternate library cells with
// generated layouts, and that the generated ones cycle through every contact
// count, so any prefix of the list is an even mix of easy and hard layouts.
func TestFreshSpecsMix(t *testing.T) {
	specs, err := freshSpecs(rand.New(rand.NewSource(3)), 26+14, nil)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	cells := 0
	for i, s := range specs {
		if s.Cell != "" {
			cells++
			if i%2 == 1 {
				t.Errorf("spec %d is a cell, want cells at even positions", i)
			}
			continue
		}
		l, err := s.Layout()
		if err != nil {
			t.Fatal(err)
		}
		counts[len(l.Patterns)]++
	}
	if cells != 13 {
		t.Errorf("%d cells, want all 13", cells)
	}
	for c := 3; c <= 9; c++ {
		if counts[c] != 3 && counts[c] != 4 {
			t.Errorf("%d generated layouts with %d contacts, want 3 or 4 of each (counts %v)", counts[c], c, counts)
		}
	}
}

func TestClipsReproducibleAndLegal(t *testing.T) {
	a, err := makeClips(5, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeClips(5, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different clips")
	}
	c, err := makeClips(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a[0].Patterns, c[0].Patterns) {
		t.Fatal("different seeds gave the same clip")
	}
	for _, l := range a {
		if l.Window != geom.RectWH(0, 0, 1088, 1088) {
			t.Errorf("%s window %v, want 1088 nm square", l.Name, l.Window)
		}
		if len(l.Patterns) != clipContacts {
			t.Errorf("%s has %d contacts, want %d", l.Name, len(l.Patterns), clipContacts)
		}
		if v := l.CheckDRC(layout.DefaultDRCParams()); len(v) > 0 {
			t.Errorf("%s violates DRC: %v", l.Name, v)
		}
		if ok, _ := layout.IsBipartite(layout.ConflictGraph(l.Patterns, layout.DefaultClassifyParams().NMin)); !ok {
			t.Errorf("%s is not bipartite", l.Name)
		}
	}
}

// TestDigestStable pins the digest format: a changed hash would make every
// recorded per-seed digest disagree with new runs.
func TestDigestStable(t *testing.T) {
	lines := []string{"clip-1-000 0101 aa bb", "clip-1-001 0110 cc dd"}
	const want = "08d5be02ba30c6ab747f2b9bc1ced1e2857fa52a4afc024e813348a4d4b493cb"
	got := digest(lines)
	if got != digest(append([]string(nil), lines...)) {
		t.Fatal("digest is not a function of its input")
	}
	if got != want {
		t.Errorf("digest = %s, want %s", got, want)
	}
	if digest([]string{lines[1], lines[0]}) == got {
		t.Error("digest ignores line order")
	}
	g := grid.New(2, 1, 4, geom.Point{})
	g.Data[0], g.Data[1] = 0.25, 1
	if gridSHA(g) != gridSHA(g) || gridSHA(g) == gridSHA(grid.New(2, 1, 4, geom.Point{})) {
		t.Error("gridSHA is not a stable content hash")
	}
}

func TestLDMOEnvRefused(t *testing.T) {
	got := ldmoEnv([]string{"PATH=/bin", "LDMO_FFT=complex", "HOME=/h", "LDMO_WORKERS=1", "XLDMO_A=1"})
	if want := []string{"LDMO_FFT", "LDMO_WORKERS"}; !reflect.DeepEqual(got, want) {
		t.Errorf("ldmoEnv = %v, want %v", got, want)
	}
}
