package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// randSlice fills a slice with standard normals; exact zeros are measure-zero
// so the naive engine's zero-skip branch cannot introduce a bitwise divergence.
func randSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

// gemmShapes are the randomized-property shapes: every remainder class of the
// 4-row strips and 4x4 dot tiles, the k=1/n=1/m=1 edges, and sizes spanning
// one panel up to several blocking panels in every dimension.
func gemmShapes(rng *rand.Rand) [][3]int {
	shapes := [][3]int{
		{1, 1, 1}, {1, 7, 1}, {4, 1, 4}, {3, 5, 2}, {5, 3, 9},
		{4, 4, 4}, {8, 49, 33}, {13, 17, 19}, {64, 256, 512},
		{65, 257, 513}, {2, 300, 600}, {48, 144, 784},
	}
	for i := 0; i < 8; i++ {
		shapes = append(shapes, [3]int{1 + rng.Intn(70), 1 + rng.Intn(300), 1 + rng.Intn(600)})
	}
	return shapes
}

// TestBlockedMatMulMatchesNaive is the kernel contract: on finite inputs the
// blocked engine reproduces the naive reference bit for bit (ascending-k
// accumulation per element), across remainder tiles and degenerate edges.
func TestBlockedMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, sh := range gemmShapes(rng) {
		m, k, n := sh[0], sh[1], sh[2]
		a := randSlice(rng, m*k)
		b := randSlice(rng, k*n)
		got := make([]float64, m*n)
		want := make([]float64, m*n)
		gemmPacked(a, false, m, k, b, n, got)
		matMulNaive(a, m, k, b, n, want)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("MatMul m=%d k=%d n=%d: out[%d] = %g (blocked) vs %g (naive), diff %g",
					m, k, n, i, got[i], want[i], got[i]-want[i])
			}
		}
	}
}

func TestBlockedMatMulATBMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, sh := range gemmShapes(rng) {
		m, k, n := sh[0], sh[1], sh[2]
		a := randSlice(rng, k*m) // stored k x m, read transposed
		b := randSlice(rng, k*n)
		got := make([]float64, m*n)
		want := make([]float64, m*n)
		gemmPacked(a, true, m, k, b, n, got)
		matMulATBNaive(a, k, m, b, n, want)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("MatMulATB m=%d k=%d n=%d: out[%d] = %g vs %g", m, k, n, i, got[i], want[i])
			}
		}
	}
}

func TestBlockedMatMulABTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, sh := range gemmShapes(rng) {
		m, k, n := sh[0], sh[1], sh[2]
		a := randSlice(rng, m*k)
		b := randSlice(rng, n*k) // stored n x k, read transposed
		got := make([]float64, m*n)
		want := make([]float64, m*n)
		gemmABT(a, m, k, b, n, got)
		matMulABTNaive(a, m, k, b, n, want)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("MatMulABT m=%d k=%d n=%d: out[%d] = %g vs %g", m, k, n, i, got[i], want[i])
			}
		}
	}
}

// TestBlockedToleratesZeros covers the one input class where bitwise equality
// is not guaranteed by construction: exact zeros take the naive engine's skip
// branch. The contract there is the documented 1e-9 agreement.
func TestBlockedToleratesZeros(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	m, k, n := 9, 37, 21
	a := randSlice(rng, m*k)
	b := randSlice(rng, k*n)
	for i := 0; i < len(a); i += 3 {
		a[i] = 0
	}
	for i := 0; i < len(b); i += 4 {
		b[i] = 0
	}
	got := make([]float64, m*n)
	want := make([]float64, m*n)
	gemmPacked(a, false, m, k, b, n, got)
	matMulNaive(a, m, k, b, n, want)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("out[%d] = %g vs %g beyond 1e-9", i, got[i], want[i])
		}
	}
}

// TestEnvSelectsNaiveEngine proves the LDMO_GEMM=naive escape hatch reaches
// the reference kernels through the exported API.
func TestEnvSelectsNaiveEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	m, k, n := 5, 11, 7
	a := randSlice(rng, m*k)
	b := randSlice(rng, k*n)
	blocked := make([]float64, m*n)
	naive := make([]float64, m*n)
	MatMul(a, m, k, b, n, blocked)
	t.Setenv(EnvGEMM, ModeNaive)
	MatMul(a, m, k, b, n, naive)
	for i := range naive {
		if blocked[i] != naive[i] {
			t.Fatalf("engines disagree at %d: %g vs %g", i, blocked[i], naive[i])
		}
	}
}

// TestRowParallelGEMMBitIdentical checks the fixed-shard-order contract:
// row-parallel blocked GEMM is bit-identical to serial at any lane count.
func TestRowParallelGEMMBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	defer SetWorkers(1)
	for _, sh := range [][3]int{{37, 120, 200}, {64, 256, 512}, {6, 30, 40}} {
		m, k, n := sh[0], sh[1], sh[2]
		a := randSlice(rng, m*k)
		b := randSlice(rng, k*n)
		SetWorkers(1)
		serial := make([]float64, m*n)
		gemmPacked(a, false, m, k, b, n, serial)
		for _, w := range []int{2, 3, 8} {
			SetWorkers(w)
			got := make([]float64, m*n)
			gemmPacked(a, false, m, k, b, n, got)
			for i := range serial {
				if got[i] != serial[i] {
					t.Fatalf("workers=%d m=%d: out[%d] = %g vs serial %g", w, m, i, got[i], serial[i])
				}
			}
		}
	}
}

// TestIm2ColBatchMatchesPerImage checks the whole-batch column matrix holds
// exactly the per-image expansions in its column blocks.
func TestIm2ColBatchMatchesPerImage(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	g := ConvGeom{InC: 3, InH: 9, InW: 7, K: 3, Stride: 2, Pad: 1}
	nBatch := 4
	cols := g.OutH() * g.OutW()
	ck := g.InC * g.K * g.K
	imgLen := g.InC * g.InH * g.InW
	imgs := randSlice(rng, nBatch*imgLen)

	batch := make([]float64, ck*nBatch*cols)
	Im2ColBatch(imgs, nBatch, g, batch)
	single := make([]float64, ck*cols)
	for b := 0; b < nBatch; b++ {
		Im2Col(imgs[b*imgLen:(b+1)*imgLen], g, single)
		for r := 0; r < ck; r++ {
			for j := 0; j < cols; j++ {
				if got, want := batch[r*nBatch*cols+b*cols+j], single[r*cols+j]; got != want {
					t.Fatalf("img %d row %d col %d: %g vs %g", b, r, j, got, want)
				}
			}
		}
	}
}

// TestCol2ImAdjointIdentity verifies <col, Im2Col(x)> == <Col2Im(col), x>
// (within accumulation-order rounding), the defining property of the
// backward scatter — batch variant included.
func TestCol2ImAdjointIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for _, g := range []ConvGeom{
		{InC: 2, InH: 8, InW: 8, K: 3, Stride: 1, Pad: 1},
		{InC: 3, InH: 9, InW: 7, K: 3, Stride: 2, Pad: 1},
		{InC: 1, InH: 6, InW: 6, K: 1, Stride: 2, Pad: 0},
	} {
		nBatch := 3
		cols := g.OutH() * g.OutW()
		ck := g.InC * g.K * g.K
		imgLen := g.InC * g.InH * g.InW
		x := randSlice(rng, nBatch*imgLen)
		c := randSlice(rng, ck*nBatch*cols)

		fx := make([]float64, ck*nBatch*cols)
		Im2ColBatch(x, nBatch, g, fx)
		aty := make([]float64, nBatch*imgLen)
		Col2ImBatch(c, nBatch, g, aty)

		var lhs, rhs float64
		for i := range fx {
			lhs += c[i] * fx[i]
		}
		for i := range x {
			rhs += aty[i] * x[i]
		}
		scale := math.Abs(lhs) + math.Abs(rhs) + 1
		if math.Abs(lhs-rhs) > 1e-9*scale {
			t.Fatalf("geom %+v: <c, Ax> = %g but <A^T c, x> = %g", g, lhs, rhs)
		}
	}
}

// TestEnsureReusesStorage pins the cap-checked scratch semantics the nn
// layer caches depend on.
func TestEnsureReusesStorage(t *testing.T) {
	a := New(2, 3, 4, 4)
	b := Ensure(a, 1, 3, 4, 4)
	if &b.Data[0] != &a.Data[0] || b.Len() != 48 {
		t.Fatal("Ensure did not reuse storage for a smaller shape")
	}
	c := Ensure(b, 4, 3, 4, 4)
	if c == b && cap(c.Data) < 4*3*4*4 {
		t.Fatal("Ensure returned undersized tensor")
	}
	if d := Ensure(nil, 1, 1, 2, 2); d.Len() != 4 {
		t.Fatalf("Ensure(nil) shape %s", d.ShapeString())
	}
}

// TestGEMMSteadyStateAllocs enforces the pooled-scratch contract: once the
// size-class pools are warm, the blocked kernels allocate nothing. The
// off-block shape exercises the remainder paths too.
func TestGEMMSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const m, k, n = 13, 70, 530
	a := randSlice(rng, m*k)
	at := randSlice(rng, k*m)
	b := randSlice(rng, k*n)
	bt := randSlice(rng, n*k)
	out := make([]float64, m*n)
	outABT := make([]float64, m*n)
	step := func() {
		MatMul(a, m, k, b, n, out)
		MatMulATB(at, k, m, b[:k*n], n, out)
		MatMulABT(a, m, k, bt, n, outABT[:m*n])
	}
	step()
	step()
	if avg := testing.AllocsPerRun(10, step); avg != 0 {
		t.Fatalf("blocked GEMM kernels allocate %.1f times per run at steady state", avg)
	}
}

func benchGEMM(b *testing.B, m, k, n int, naive bool) {
	rng := rand.New(rand.NewSource(1))
	av := randSlice(rng, m*k)
	bv := randSlice(rng, k*n)
	out := make([]float64, m*n)
	if naive {
		b.Setenv(EnvGEMM, ModeNaive)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(av, m, k, bv, n, out)
	}
}

func BenchmarkGEMMStemBlocked(b *testing.B) { benchGEMM(b, 8, 49, 12544, false) }
func BenchmarkGEMMStemNaive(b *testing.B)   { benchGEMM(b, 8, 49, 12544, true) }
func BenchmarkGEMMMidBlocked(b *testing.B)  { benchGEMM(b, 48, 288, 784, false) }
func BenchmarkGEMMMidNaive(b *testing.B)    { benchGEMM(b, 48, 288, 784, true) }
