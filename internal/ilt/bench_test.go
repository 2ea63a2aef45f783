package ilt

import (
	"fmt"
	"testing"

	"ldmo/internal/decomp"
	"ldmo/internal/geom"
	"ldmo/internal/layout"
)

// clipLayout tiles the two-row layout 2x2 into one 2*TileNM clip: at the
// default 4 nm resolution a 272x272 raster on a 512x512 FFT plane, the
// geometry of the flow_clips benchmark workload.
func clipLayout() layout.Layout {
	tile := twoRowLayout()
	l := layout.Layout{Name: "clip2x2", Window: geom.RectWH(0, 0, 2*layout.TileNM, 2*layout.TileNM)}
	for t := 0; t < 4; t++ {
		dx, dy := (t%2)*layout.TileNM, (t/2)*layout.TileNM
		for _, p := range tile.Patterns {
			l.Patterns = append(l.Patterns, p.Translate(dx, dy))
		}
	}
	return l
}

// BenchmarkILTStep512 times one Session.Step on the 2x2-tile clip with one
// mask lane (the masks one after the other) and with two (concurrently).
// The kernel lanes keep their derived count, max(1, par.Workers()/2). The
// session is reset outside the timer whenever its budget runs out.
func BenchmarkILTStep512(b *testing.B) {
	l := clipLayout()
	cands, err := decomp.NewGenerator().Generate(l)
	if err != nil {
		b.Fatal(err)
	}
	for _, lanes := range []int{1, 2} {
		b.Run(fmt.Sprintf("masks%d", lanes), func(b *testing.B) {
			opt, err := NewOptimizer(l, DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			if px := opt.target.W; px != 272 {
				b.Fatalf("clip raster is %d px wide, want 272", px)
			}
			setMaskLanes(opt, lanes)
			s := opt.NewSession(cands[0])
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if s.Remaining() == 0 {
					b.StopTimer()
					s.reset(cands[0])
					b.StartTimer()
				}
				s.Step(1)
			}
		})
	}
}
