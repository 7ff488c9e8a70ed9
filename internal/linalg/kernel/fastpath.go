package kernel

// Fully unrolled fast paths for the 1–3 qubit (2×2, 4×4, 8×8) dense
// products that dominate GRAPE propagation and VUG instantiation.
// Operands arrive as fixed-size array pointers so
// every index is a compile-time constant: no bounds checks, no loop
// counters in the 2×2/4×4 bodies, and the 8×8 row loop unrolls k and j
// completely. Summation over the shared dimension is in ascending
// order, fixed per size, so the fast paths are bit-deterministic.

// mul2 computes dst = a·b for 2×2.
func mul2(dst, a, b *[4]complex128) {
	a0, a1 := a[0], a[1]
	dst[0] = a0*b[0] + a1*b[2]
	dst[1] = a0*b[1] + a1*b[3]
	a0, a1 = a[2], a[3]
	dst[2] = a0*b[0] + a1*b[2]
	dst[3] = a0*b[1] + a1*b[3]
}

// mul4 computes dst = a·b for 4×4, fully unrolled with every index a
// constant. All of b is hoisted into locals first: dst may not alias
// the operands by contract, but the compiler cannot know that, and
// without the hoist every store to dst forces b's entries to be
// reloaded on the next row.
func mul4(dst, a, b *[16]complex128) {
	b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
	b4, b5, b6, b7 := b[4], b[5], b[6], b[7]
	b8, b9, b10, b11 := b[8], b[9], b[10], b[11]
	b12, b13, b14, b15 := b[12], b[13], b[14], b[15]
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	dst[0] = a0*b0 + a1*b4 + a2*b8 + a3*b12
	dst[1] = a0*b1 + a1*b5 + a2*b9 + a3*b13
	dst[2] = a0*b2 + a1*b6 + a2*b10 + a3*b14
	dst[3] = a0*b3 + a1*b7 + a2*b11 + a3*b15
	a0, a1, a2, a3 = a[4], a[5], a[6], a[7]
	dst[4] = a0*b0 + a1*b4 + a2*b8 + a3*b12
	dst[5] = a0*b1 + a1*b5 + a2*b9 + a3*b13
	dst[6] = a0*b2 + a1*b6 + a2*b10 + a3*b14
	dst[7] = a0*b3 + a1*b7 + a2*b11 + a3*b15
	a0, a1, a2, a3 = a[8], a[9], a[10], a[11]
	dst[8] = a0*b0 + a1*b4 + a2*b8 + a3*b12
	dst[9] = a0*b1 + a1*b5 + a2*b9 + a3*b13
	dst[10] = a0*b2 + a1*b6 + a2*b10 + a3*b14
	dst[11] = a0*b3 + a1*b7 + a2*b11 + a3*b15
	a0, a1, a2, a3 = a[12], a[13], a[14], a[15]
	dst[12] = a0*b0 + a1*b4 + a2*b8 + a3*b12
	dst[13] = a0*b1 + a1*b5 + a2*b9 + a3*b13
	dst[14] = a0*b2 + a1*b6 + a2*b10 + a3*b14
	dst[15] = a0*b3 + a1*b7 + a2*b11 + a3*b15
}

// mul8 computes dst = a·b for 8×8.
func mul8(dst, a, b *[64]complex128) {
	for i := 0; i < 64; i += 8 {
		a0, a1, a2, a3 := a[i], a[i+1], a[i+2], a[i+3]
		a4, a5, a6, a7 := a[i+4], a[i+5], a[i+6], a[i+7]
		dst[i+0] = a0*b[0] + a1*b[8] + a2*b[16] + a3*b[24] + a4*b[32] + a5*b[40] + a6*b[48] + a7*b[56]
		dst[i+1] = a0*b[1] + a1*b[9] + a2*b[17] + a3*b[25] + a4*b[33] + a5*b[41] + a6*b[49] + a7*b[57]
		dst[i+2] = a0*b[2] + a1*b[10] + a2*b[18] + a3*b[26] + a4*b[34] + a5*b[42] + a6*b[50] + a7*b[58]
		dst[i+3] = a0*b[3] + a1*b[11] + a2*b[19] + a3*b[27] + a4*b[35] + a5*b[43] + a6*b[51] + a7*b[59]
		dst[i+4] = a0*b[4] + a1*b[12] + a2*b[20] + a3*b[28] + a4*b[36] + a5*b[44] + a6*b[52] + a7*b[60]
		dst[i+5] = a0*b[5] + a1*b[13] + a2*b[21] + a3*b[29] + a4*b[37] + a5*b[45] + a6*b[53] + a7*b[61]
		dst[i+6] = a0*b[6] + a1*b[14] + a2*b[22] + a3*b[30] + a4*b[38] + a5*b[46] + a6*b[54] + a7*b[62]
		dst[i+7] = a0*b[7] + a1*b[15] + a2*b[23] + a3*b[31] + a4*b[39] + a5*b[47] + a6*b[55] + a7*b[63]
	}
}

// adjMul4 computes dst = a†·b for 4×4, bit for bit as adjMul: each
// entry starts at +0 and adds conj(a[p][i])·b[p][j] for p ascending.
// The leading +0 is kept, because it turns a −0 first term into +0.
func adjMul4(dst, a, b *[16]complex128) {
	b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
	b4, b5, b6, b7 := b[4], b[5], b[6], b[7]
	b8, b9, b10, b11 := b[8], b[9], b[10], b[11]
	b12, b13, b14, b15 := b[12], b[13], b[14], b[15]
	c0, c1, c2, c3 := conj(a[0]), conj(a[4]), conj(a[8]), conj(a[12])
	dst[0] = 0 + c0*b0 + c1*b4 + c2*b8 + c3*b12
	dst[1] = 0 + c0*b1 + c1*b5 + c2*b9 + c3*b13
	dst[2] = 0 + c0*b2 + c1*b6 + c2*b10 + c3*b14
	dst[3] = 0 + c0*b3 + c1*b7 + c2*b11 + c3*b15
	c0, c1, c2, c3 = conj(a[1]), conj(a[5]), conj(a[9]), conj(a[13])
	dst[4] = 0 + c0*b0 + c1*b4 + c2*b8 + c3*b12
	dst[5] = 0 + c0*b1 + c1*b5 + c2*b9 + c3*b13
	dst[6] = 0 + c0*b2 + c1*b6 + c2*b10 + c3*b14
	dst[7] = 0 + c0*b3 + c1*b7 + c2*b11 + c3*b15
	c0, c1, c2, c3 = conj(a[2]), conj(a[6]), conj(a[10]), conj(a[14])
	dst[8] = 0 + c0*b0 + c1*b4 + c2*b8 + c3*b12
	dst[9] = 0 + c0*b1 + c1*b5 + c2*b9 + c3*b13
	dst[10] = 0 + c0*b2 + c1*b6 + c2*b10 + c3*b14
	dst[11] = 0 + c0*b3 + c1*b7 + c2*b11 + c3*b15
	c0, c1, c2, c3 = conj(a[3]), conj(a[7]), conj(a[11]), conj(a[15])
	dst[12] = 0 + c0*b0 + c1*b4 + c2*b8 + c3*b12
	dst[13] = 0 + c0*b1 + c1*b5 + c2*b9 + c3*b13
	dst[14] = 0 + c0*b2 + c1*b6 + c2*b10 + c3*b14
	dst[15] = 0 + c0*b3 + c1*b7 + c2*b11 + c3*b15
}

// adjMul8 computes dst = a†·b for 8×8 in adjMul's summation order,
// one row of dst (one column of a) per outer iteration.
func adjMul8(dst, a, b *[64]complex128) {
	for i := 0; i < 8; i++ {
		c0, c1, c2, c3 := conj(a[i]), conj(a[8+i]), conj(a[16+i]), conj(a[24+i])
		c4, c5, c6, c7 := conj(a[32+i]), conj(a[40+i]), conj(a[48+i]), conj(a[56+i])
		r := (*[8]complex128)(dst[8*i:])
		for j := 0; j < 8; j++ {
			r[j] = 0 + c0*b[j] + c1*b[8+j] + c2*b[16+j] + c3*b[24+j] +
				c4*b[32+j] + c5*b[40+j] + c6*b[48+j] + c7*b[56+j]
		}
	}
}
