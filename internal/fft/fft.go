// Package fft provides the radix-2 fast Fourier transforms and FFT-based
// convolution used by the lithography simulator. Aerial-image formation in
// the SOCS model is a set of 2-D convolutions of the mask with the optical
// kernels; on 224x224-class rasters the FFT path is the difference between a
// usable ILT loop and an unusable one.
//
// The transforms are table-driven: per-size twiddle factors and bit-reversal
// permutations are computed once (see tables.go) and every butterfly reads
// the exact Sincos-sampled constant, so accuracy does not degrade with
// transform length. Real-valued rasters — masks, fields, kernels, which is
// everything the simulator transforms — go through the half-spectrum RFFT
// path in rfft.go unless LDMO_FFT=complex forces the full complex reference
// path.
package fft

import (
	"fmt"
	"math/bits"
)

// NextPow2 returns the smallest power of two >= n (and at least 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// FFT performs an in-place forward radix-2 Cooley-Tukey transform of x.
// len(x) must be a power of two; it panics otherwise, since a bad length is
// always a programming error in this codebase (callers pad explicitly).
func FFT(x []complex128) { transformWith(x, tablesFor(len(x)), false, vecEnabled()) }

// IFFT performs an in-place inverse transform of x, including the 1/N
// normalization, so IFFT(FFT(x)) == x up to rounding.
func IFFT(x []complex128) {
	transformWith(x, tablesFor(len(x)), true, vecEnabled())
	scale(x, 1/float64(len(x)))
}

// transformWith runs the in-place radix-2 transform of x against
// precomputed tables; len(x) must equal tw.n. No normalization is applied.
// vec selects the AVX butterfly kernel for the stages wide enough to
// vectorize; either way the result is bit-identical (finite inputs).
func transformWith(x []complex128, tw *twiddles, inverse, vec bool) {
	n := tw.n
	if len(x) != n {
		panic(fmt.Sprintf("fft: length %d != table size %d", len(x), n))
	}
	if n <= 1 {
		return
	}
	// Bit-reversal permutation, precomputed.
	for i, r := range tw.rev {
		if int32(i) < r {
			x[i], x[r] = x[r], x[i]
		}
	}
	tab := tw.fwd
	stg := tw.stgFwd
	if inverse {
		tab, stg = tw.inv, tw.stgInv
	}
	if vec && n >= 4 {
		// First stage (half = 1): single-butterfly blocks with the lone
		// twiddle tab[0] — too narrow for a two-complex vector, kept as the
		// exact scalar expression.
		for k := 0; k < n; k += 2 {
			a := x[k]
			b := x[k+1] * tab[0]
			x[k] = a + b
			x[k+1] = a - b
		}
		// Every remaining stage is whole 32-byte vectors: the stage's
		// twiddles sit contiguous at stg[half-1] (see stageLayout).
		for size := 4; size <= n; size <<= 1 {
			half := size >> 1
			fftStageAVX(&x[0], n, half, &stg[half-1])
		}
		return
	}
	// Iterative butterflies; stage size s reads the table with stride n/s.
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			ti := 0
			for k := start; k < start+half; k++ {
				a := x[k]
				b := x[k+half] * tab[ti]
				x[k] = a + b
				x[k+half] = a - b
				ti += step
			}
		}
	}
}

// scale multiplies every element by s. The transform sizes here are powers
// of two, so s = 1/n is exact and this matches per-element division bit for
// bit.
func scale(x []complex128, s float64) {
	c := complex(s, 0)
	for i := range x {
		x[i] *= c
	}
}

// colStrip is how many columns the column pass transforms together. At
// 2 KiB of complex128 per strip row, a 512-row strip (1 MiB) stays resident
// in L2 across all of its butterfly stages.
const colStrip = 128

// FFT2D transforms a w x h row-major complex raster in place (rows first,
// then columns). Both w and h must be powers of two. It needs no scratch,
// so steady-state calls do not allocate.
func FFT2D(data []complex128, w, h int) { transform2D(data, w, h, false, vecEnabled()) }

// IFFT2D inverts FFT2D, including normalization.
func IFFT2D(data []complex128, w, h int) { transform2D(data, w, h, true, vecEnabled()) }

// transform2D is the shared full-complex 2-D driver: every row, then every
// column, both in place.
func transform2D(data []complex128, w, h int, inverse, vec bool) {
	if len(data) != w*h {
		panic(fmt.Sprintf("fft: data length %d != %d x %d", len(data), w, h))
	}
	rtw := tablesFor(w)
	for y := 0; y < h; y++ {
		transformWith(data[y*w:(y+1)*w], rtw, inverse, vec)
	}
	if inverse {
		scale(data, 1/float64(w))
	}
	transformCols(data, w, h, tablesFor(h), inverse, vec)
	if inverse {
		scale(data, 1/float64(h))
	}
}

// transformCols transforms every column of the w x h raster in place using
// the length-h tables, without gathering columns out of the raster. The
// bit-reversal permutes whole rows; then each strip of colStrip columns runs
// every butterfly stage, one row pair (k, k+half) at a time across the
// strip's contiguous columns with that pair's single twiddle. Each column
// sees exactly the operations transformWith applies to it, so the result is
// bit-identical to transforming the columns one by one. No normalization is
// applied.
func transformCols(data []complex128, w, h int, tw *twiddles, inverse, vec bool) {
	for i, r := range tw.rev {
		if int32(i) < r {
			a := data[i*w : (i+1)*w]
			b := data[int(r)*w : (int(r)+1)*w]
			for x := range a {
				a[x], b[x] = b[x], a[x]
			}
		}
	}
	tab := tw.fwd
	if inverse {
		tab = tw.inv
	}
	for x0 := 0; x0 < w; x0 += colStrip {
		x1 := min(x0+colStrip, w)
		for size := 2; size <= h; size <<= 1 {
			half := size >> 1
			step := h / size
			for start := 0; start < h; start += size {
				for j := 0; j < half; j++ {
					k := start + j
					butterflyRows(data[k*w+x0:k*w+x1], data[(k+half)*w+x0:(k+half)*w+x1], &tab[j*step], vec)
				}
			}
		}
	}
}

// butterflyRows runs the radix-2 butterfly a[c], b[c] = a[c]+b[c]*t,
// a[c]-b[c]*t down every column c of one row pair, t = *tw. The vector
// engine takes whole pairs of columns; an odd tail column runs the same
// expression in Go.
func butterflyRows(a, b []complex128, tw *complex128, vec bool) {
	c := 0
	if vec {
		if v := len(a) &^ 1; v > 0 {
			butterflyRowsAVX(&a[0], &b[0], v, tw)
			c = v
		}
	}
	b = b[:len(a)]
	t := *tw
	for ; c < len(a); c++ {
		u := a[c]
		v := b[c] * t
		a[c] = u + v
		b[c] = u - v
	}
}
