package kernel

// AdjMulGeneric is adjMul, the runtime-n loop the unrolled adjMul4 and
// adjMul8 must match bit for bit (fastpath_test.go).
func AdjMulGeneric(dst, a, b []complex128, n int) { adjMul(dst, a, b, n) }
