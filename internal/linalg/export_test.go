package linalg

// Hooks for the external differential tests (fixedsize_test.go), which
// check the fixed-size paths against the generic ones bit for bit and
// draw their operands from kerneltest, a package that imports linalg.

// PadeGeneric is padeInto: the order-m Padé approximant of e^a.
func PadeGeneric(dst, a *Matrix, m int) { padeInto(nil, dst, a, m) }

// PadeSmall is padeSmall, the fixed-size low-order Padé path.
func PadeSmall(dst, a *Matrix, m int) {
	padeSmall(dst.Data, a.Data, make([]complex128, padeTemps*a.Rows*a.Rows), a.Rows, m)
}

// LUSolveGeneric solves den·X = num into dst with luFactor and one
// luSolvePermuted per column, as padeInto does. It reports false when
// luFactor finds den singular.
func LUSolveGeneric(dst, den, num *Matrix) bool {
	n := den.Rows
	piv := make([]int, n)
	if luFactor(den, piv) != nil {
		return false
	}
	b := make([]complex128, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			b[i] = num.Data[piv[i]*n+j]
		}
		luSolvePermuted(den, b)
		for i := 0; i < n; i++ {
			dst.Data[i*n+j] = b[i]
		}
	}
	return true
}

// LUSolveSmall is luSolveSmall.
func LUSolveSmall(dst, den, num *Matrix) { luSolveSmall(dst.Data, den.Data, num.Data, den.Rows) }

// SmithDiv is n/m through smithDiv.
func SmithDiv(n, m complex128) complex128 {
	d := newSmithDiv(m)
	return d.div(n)
}

// LowPadeOrder is lowPadeOrder, ExpmInto's choice of unscaled order.
func LowPadeOrder(a *Matrix) int { return lowPadeOrder(a) }

// AbsGreater is absGreater, luSolveSmall's pivot comparison.
func AbsGreater(x, y complex128) bool { return absGreater(x, y) }
