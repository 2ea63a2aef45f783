package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"ldmo/internal/geom"
	"ldmo/internal/grid"
	"ldmo/internal/layout"
	"ldmo/internal/sampling"
	"ldmo/internal/serve"
)

// The benchmark generates every input, and the program sees only the
// generated layouts and specs. The layouts themselves come from corpusSeed,
// the same for every run: quality and the amount of work then compare
// between runs, where per-seed layout sets would swing the mean Eq. 9 score
// by half. The workload seed sets everything else: the order of the jobs and
// clips, the arrival times, which done spec each hit resubmits, and the
// training shuffle and initialization.
const corpusSeed = 1

// arrival is one scheduled request of the serve_cells open loop.
type arrival struct {
	At   time.Duration // offset from the start of the schedule
	Spec serve.JobSpec
	Hit  bool // resubmits a spec that is already done
}

// arrivalSchedule builds the open-loop schedule: fresh = freshRate*seconds
// fresh jobs plus a third as many hits (a quarter of all requests). The
// arrival times are one realization of a Poisson process, drawn from the
// corpus seed and conditioned on its last arrival landing at the end of the
// window (exponential gaps scaled to sum to the window). Hits sit at random
// positions before the last arrival and resubmit one of hitSpecs, which must
// already be done; the fresh jobs of freshSpecs fill the other arrivals in a
// corpus-seeded order. The workload seed picks each hit's spec.
//
// Every seed shares the arrival times and the job order, as common random
// numbers: with only a dozen fresh jobs, which jobs a Poisson clump queued
// behind a running wave decided the median latency, and it moved by a third
// between seeds on the draw alone.
func arrivalSchedule(seed int64, seconds int, freshRate float64, hitSpecs []serve.JobSpec) ([]arrival, error) {
	if len(hitSpecs) == 0 {
		return nil, fmt.Errorf("schedule: no done specs to resubmit")
	}
	corpus := rand.New(rand.NewSource(corpusSeed))
	nFresh := max(1, int(math.Round(freshRate*float64(seconds))))
	n := nFresh + int(math.Round(float64(nFresh)/3))
	gaps := make([]float64, n)
	for i := range gaps {
		gaps[i] = corpus.ExpFloat64()
	}
	scale := float64(time.Duration(seconds)*time.Second) / sum(gaps)
	hit := make([]bool, n)
	for _, i := range corpus.Perm(n - 1)[:n-nFresh] {
		hit[i] = true
	}
	fresh, err := freshSpecs(corpus, nFresh, hitSpecs)
	if err != nil {
		return nil, err
	}

	corpus.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	rng := rand.New(rand.NewSource(seed))
	out := make([]arrival, n)
	t := 0.0
	for i := range out {
		t += gaps[i]
		out[i].At = time.Duration(t * scale)
		if hit[i] {
			out[i].Spec = hitSpecs[rng.Intn(len(hitSpecs))]
			out[i].Hit = true
			continue
		}
		out[i].Spec, fresh = fresh[0], fresh[1:]
	}
	return out, nil
}

// freshSpecs returns n distinct single-cell job specs, alternating the
// Table I library cells with generated layouts (gen_seed) whose contact
// counts cycle through 3..9, an even mix of easy and hard layouts; once the
// cells run out the rest are generated. Specs equal to one in avoid are
// skipped, so a fresh job is never a dedupe hit.
func freshSpecs(rng *rand.Rand, n int, avoid []serve.JobSpec) ([]serve.JobSpec, error) {
	seen := map[string]bool{}
	for _, s := range avoid {
		seen[s.ID()] = true
	}
	var cells []serve.JobSpec
	names := layout.CellNames()
	for _, i := range rng.Perm(len(names)) {
		cells = append(cells, serve.JobSpec{Cell: names[i]})
	}
	counts := contactCycle(rng)
	var out []serve.JobSpec
	for gen := 0; len(out) < n; {
		if len(out)%2 == 0 && len(cells) > 0 {
			s := cells[0]
			cells = cells[1:]
			if !seen[s.ID()] {
				seen[s.ID()] = true
				out = append(out, s)
			}
			continue
		}
		s, err := genSpecWithContacts(rng, counts[gen%len(counts)], seen)
		if err != nil {
			return nil, err
		}
		gen++
		out = append(out, s)
	}
	return out, nil
}

// contactCycle returns the generator's contact counts 3..9 in a seeded order.
func contactCycle(rng *rand.Rand) []int {
	p := layout.DefaultGenParams()
	var counts []int
	for _, i := range rng.Perm(p.MaxContacts - p.MinContacts + 1) {
		counts = append(counts, p.MinContacts+i)
	}
	return counts
}

// genSpecWithContacts draws gen_seed values until one materializes (exactly
// as serve does) into a layout with the wanted contact count, and returns
// that spec. It gives up after a bounded number of draws.
func genSpecWithContacts(rng *rand.Rand, contacts int, seen map[string]bool) (serve.JobSpec, error) {
	for try := 0; try < 10000; try++ {
		gs := rng.Int63n(1 << 40)
		s := serve.JobSpec{GenSeed: &gs}
		if seen[s.ID()] {
			continue
		}
		l, err := s.Layout()
		if err != nil || len(l.Patterns) != contacts {
			continue
		}
		seen[s.ID()] = true
		return s, nil
	}
	return serve.JobSpec{}, fmt.Errorf("no generated layout with %d contacts", contacts)
}

// clipContacts is the contact count of every clip: its four tiles carry a,
// 12-a, b and 12-b contacts, so clips differ in structure but not in size.
const clipContacts = 24

// makeClips returns n multi-cell clips generated from seed: 2x2 tiles of
// generated layouts in a 2*TileNM window (1088 nm, a 272x272 raster at 4 nm
// and a 512x512 FFT plane). Each clip is checked to be DRC-clean and two-mask
// decomposable.
func makeClips(seed int64, n int) ([]layout.Layout, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]layout.Layout, 0, n)
	for i := 0; i < n; i++ {
		c, err := makeClip(rng, fmt.Sprintf("clip-%d-%03d", seed, i))
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

func makeClip(rng *rand.Rand, name string) (layout.Layout, error) {
	p := layout.DefaultGenParams()
	a := p.MinContacts + rng.Intn(p.MaxContacts-p.MinContacts+1)
	b := p.MinContacts + rng.Intn(p.MaxContacts-p.MinContacts+1)
	counts := []int{a, clipContacts/2 - a, b, clipContacts/2 - b}
	rng.Shuffle(len(counts), func(i, j int) { counts[i], counts[j] = counts[j], counts[i] })
	clip := layout.Layout{Name: name, Window: geom.RectWH(0, 0, 2*layout.TileNM, 2*layout.TileNM)}
	for t, c := range counts {
		q := p
		q.MinContacts, q.MaxContacts = c, c
		tile, err := layout.Generate(rng, q)
		if err != nil {
			return layout.Layout{}, fmt.Errorf("clip %s tile %d: %w", name, t, err)
		}
		dx, dy := (t%2)*layout.TileNM, (t/2)*layout.TileNM
		for _, r := range tile.Patterns {
			clip.Patterns = append(clip.Patterns, geom.Rect{X0: r.X0 + dx, Y0: r.Y0 + dy, X1: r.X1 + dx, Y1: r.Y1 + dy})
		}
	}
	if err := checkClip(clip); err != nil {
		return layout.Layout{}, err
	}
	return clip, nil
}

// checkClip verifies that a clip passes DRC and that its SP conflict graph
// is bipartite, the two conditions the generator guarantees per tile.
func checkClip(l layout.Layout) error {
	if v := l.CheckDRC(layout.DefaultDRCParams()); len(v) > 0 {
		return fmt.Errorf("clip %s violates DRC: %v", l.Name, v[0])
	}
	if ok, _ := layout.IsBipartite(layout.ConflictGraph(l.Patterns, layout.DefaultClassifyParams().NMin)); !ok {
		return fmt.Errorf("clip %s is not two-mask decomposable", l.Name)
	}
	return nil
}

// capDecompositions keeps layouts from ls, in order, while the total number
// of sampled training decompositions stays within budget, and returns them
// with that total. The budget fixes the labeling and training work.
func capDecompositions(ls []layout.Layout, sc sampling.Config, budget int) ([]layout.Layout, int, error) {
	var out []layout.Layout
	total := 0
	for _, l := range ls {
		ds, err := sampling.SampleDecompositions(l, sc)
		if err != nil {
			return nil, 0, err
		}
		if total+len(ds) > budget {
			continue
		}
		out = append(out, l)
		total += len(ds)
	}
	return out, total, nil
}

// shuffled returns a copy of xs in an order drawn from seed.
func shuffled[T any](xs []T, seed int64) []T {
	out := append([]T(nil), xs...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// meanByName averages per-layout values in name order, so that the result is
// bit-identical whatever order the layouts ran in.
func meanByName(vals map[string]float64) float64 {
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	t := 0.0
	for _, n := range names {
		t += vals[n]
	}
	return t / float64(max(len(vals), 1))
}

// digest hashes result lines (one per job or clip, in input order) into the
// run's result digest.
func digest(lines []string) string {
	h := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(h[:])
}

// gridSHA hashes a raster's float64 bit patterns, the same way serve seals
// its mask hashes; "" for a nil grid.
func gridSHA(g *grid.Grid) string {
	if g == nil {
		return ""
	}
	h := sha256.New()
	var b [8]byte
	for _, v := range g.Data {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
