// Package kernel is the profiled linear-algebra kernel layer beneath
// internal/linalg. It operates on raw row-major []complex128 buffers
// (no Matrix type, no in-module dependencies) and provides:
//
//   - fully unrolled fast paths for the 2×2, 4×4 and 8×8 (1–3 qubit)
//     products, the only sizes the pipeline forms (blocks are capped
//     at 3 qubits), and adjoint-fused products (a†·b, a·b†) so
//     callers never materialize a conjugate transpose;
//   - an exact-zero-skipping streaming loop for every other shape,
//     which only tests and the density-matrix reference reach;
//   - Workspace, a per-goroutine bump arena that makes the hot loops
//     (GRAPE propagators, Padé exponentials, eigensolves)
//     allocation-free in steady state.
//
// Every kernel is deterministic: the floating-point summation order is
// a pure function of the operand shapes, never of timing or worker
// count, which is what keeps Workers:1 ≡ Workers:8 pipeline output
// byte-identical. Correctness against the naive reference is enforced
// by the differential harness in internal/linalg/kerneltest.
package kernel

// Workspace is a per-goroutine scratch arena for kernel temporaries.
// Take* methods hand out zeroed slices by bumping an offset into a
// grow-once backing buffer; Mark/Rewind give stack discipline so
// nested kernels reuse the same bytes call after call. After warmup
// (one growth per high-water mark) a Workspace allocates nothing.
//
// Ownership rules (see DESIGN.md §14): a Workspace is NOT goroutine
// safe — create one per goroutine and never share. Slices obtained
// from Take* are owned by the arena and are invalidated by Rewind past
// their Mark; results that outlive a kernel call must be
// copied into caller-owned memory. All methods are nil-safe: a nil
// *Workspace degrades to plain make allocations, so workspace-threaded
// APIs stay usable in cold paths and tests without plumbing.
type Workspace struct {
	c arena[complex128]
	f arena[float64]
	i arena[int]
}

// NewWorkspace returns an empty arena; backing buffers grow on demand.
func NewWorkspace() *Workspace { return &Workspace{} }

// Mark captures the current arena offsets for a later Rewind.
type Mark struct {
	c, f, i pos
}

// Mark returns the current allocation position of all three arenas.
func (w *Workspace) Mark() Mark {
	if w == nil {
		return Mark{}
	}
	return Mark{c: w.c.mark(), f: w.f.mark(), i: w.i.mark()}
}

// Rewind releases every slice taken since the matching Mark. Slices
// handed out after m must no longer be used.
func (w *Workspace) Rewind(m Mark) {
	if w == nil {
		return
	}
	w.c.rewind(m.c)
	w.f.rewind(m.f)
	w.i.rewind(m.i)
}

// TakeComplex returns a zeroed length-n complex scratch slice.
func (w *Workspace) TakeComplex(n int) []complex128 {
	if w == nil {
		return make([]complex128, n)
	}
	return w.c.take(n)
}

// TakeFloat returns a zeroed length-n float scratch slice.
func (w *Workspace) TakeFloat(n int) []float64 {
	if w == nil {
		return make([]float64, n)
	}
	return w.f.take(n)
}

// TakeInt returns a zeroed length-n int scratch slice.
func (w *Workspace) TakeInt(n int) []int {
	if w == nil {
		return make([]int, n)
	}
	return w.i.take(n)
}

// pos addresses a point in an arena: the buffer generation (epoch) and
// the bump offset within it.
type pos struct {
	epoch, off int
}

// arena is a bump allocator over one backing slice. Growing allocates
// a fresh, larger buffer and bumps the epoch; slices handed out from
// the old buffer stay valid (they keep the old storage alive) but the
// old bytes are only reclaimed at the next whole-buffer turnover.
// Rewinding to a mark from an older epoch keeps the current offset —
// wasting at most one transient buffer's worth — because offsets from
// different buffers are not comparable. Growth happens O(log max-need)
// times over a workspace's lifetime, so the waste is bounded and the
// steady state allocates nothing.
type arena[T int | float64 | complex128] struct {
	buf   []T
	off   int
	epoch int
}

func (a *arena[T]) mark() pos { return pos{epoch: a.epoch, off: a.off} }

func (a *arena[T]) rewind(p pos) {
	switch {
	case p.epoch == a.epoch:
		a.off = p.off
	case p.off == 0:
		// The mark predates every checkout in the current buffer
		// (nothing had been taken when it was made; later epochs only
		// ever hand out post-mark slices), so the whole buffer is
		// reclaimable even across a growth.
		a.off = 0
	}
}

func (a *arena[T]) take(n int) []T {
	if a.off+n > len(a.buf) {
		// Double both the current size and the request so a high-water
		// frame triggers O(log) growths ever, not one per call.
		grown := 2 * len(a.buf)
		if grown < 2*n {
			grown = 2 * n
		}
		if grown < 256 {
			grown = 256
		}
		a.buf = make([]T, grown)
		a.off = 0
		a.epoch++
	}
	s := a.buf[a.off : a.off+n : a.off+n]
	a.off += n
	var zero T
	for i := range s {
		s[i] = zero
	}
	return s
}
