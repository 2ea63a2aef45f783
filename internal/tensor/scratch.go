// Size-keyed scratch for the GEMM engine: one mutex-guarded free list per
// power-of-two size class, so steady-state hot paths (packing buffers) never
// allocate. Unlike a sync.Pool, a free list never drops a returned buffer —
// not under GC, not under the race detector — so the zero-alloc contract
// holds everywhere. The lists only ever hold as many buffers as were once in
// use at the same time.
package tensor

import (
	"math/bits"
	"sync"
)

var (
	bufMu   sync.Mutex
	bufFree = map[int][]*[]float64{}
)

// sizeClass rounds n up to a power of two so recycled buffers are reusable
// across nearby sizes instead of fragmenting the free lists per exact length.
func sizeClass(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// getBuf returns a recycled float64 buffer with capacity >= n. Contents are
// unspecified; callers overwrite or zero what they read.
func getBuf(n int) *[]float64 {
	class := sizeClass(n)
	bufMu.Lock()
	free := bufFree[class]
	if k := len(free); k > 0 {
		b := free[k-1]
		bufFree[class] = free[:k-1]
		bufMu.Unlock()
		return b
	}
	bufMu.Unlock()
	s := make([]float64, class)
	return &s
}

// putBuf recycles a buffer obtained from getBuf.
func putBuf(b *[]float64) {
	class := sizeClass(cap(*b))
	bufMu.Lock()
	bufFree[class] = append(bufFree[class], b)
	bufMu.Unlock()
}
