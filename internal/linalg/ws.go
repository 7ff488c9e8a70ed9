package linalg

import (
	"fmt"

	"epoc/internal/linalg/kernel"
)

// Allocation-free entry points. Each *Into function writes its result
// into a caller-owned, pre-shaped dst; the products need no scratch,
// and the exponentials and eigensolver take an optional
// *kernel.Workspace for internal temporaries (nil falls back to plain
// allocation, so cold paths need no plumbing).
// The //epoc:hot loops in qoc, opt and densesim route through these;
// the allocating methods (Mul, Expm, EigHermitian, …) are thin
// wrappers that remain for everything else. Ownership rules are in
// DESIGN.md §14: one Workspace per goroutine, never shared, and
// nothing handed out by a workspace survives its Rewind.

// MulInto sets dst = a·b. dst must be pre-shaped to a.Rows×b.Cols and
// must not alias a or b.
func MulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: MulInto shape mismatch %dx%d = %dx%d · %dx%d",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	kernel.MatMul(nil, dst.Data, a.Data, b.Data, a.Rows, a.Cols, b.Cols)
}

// AdjointMulInto sets dst = a†·b without materializing a†. dst must be
// pre-shaped to a.Cols×b.Cols and must not alias a or b.
func AdjointMulInto(dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: AdjointMulInto shape mismatch %dx%d = (%dx%d)† · %dx%d",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	kernel.AdjointMul(dst.Data, a.Data, b.Data, a.Cols, a.Rows, b.Cols)
}

// MulAdjointInto sets dst = a·b† without materializing b†. dst must be
// pre-shaped to a.Rows×b.Rows and must not alias a or b.
func MulAdjointInto(dst, a, b *Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: MulAdjointInto shape mismatch %dx%d = %dx%d · (%dx%d)†",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	kernel.MulAdjoint(dst.Data, a.Data, b.Data, a.Rows, a.Cols, b.Rows)
}

// matrixAt wraps a workspace-checked-out buffer as an r×c Matrix. The
// matrix obeys arena ownership: it is dead after the Rewind of the
// frame it was taken in. It returns a value, not a pointer, so the
// header stays on the caller's stack (hot loops would otherwise pay
// one header allocation per temporary per call).
func matrixAt(ws *kernel.Workspace, r, c int) Matrix {
	return Matrix{Rows: r, Cols: c, Data: ws.TakeComplex(r * c)}
}
