package nn

import "fmt"

// gemmAsm is gemm's assembly body, set at init where this GOARCH has one
// and the CPU can run it. It computes the columns below the last multiple
// of 16 and gemmGo the rest. While it is nil, gemmGo computes every
// column; tests set it to nil to force the Go body.
var gemmAsm func(m, n, k int, a []float64, ai, ak int, b []float64, ldb int, c []float64, ldc int)

// gemm adds the product of the m × k matrix A and the k × n matrix B to
// the m × n matrix C, one term at a time:
//
//	C[i][j] = (…((C[i][j] + A[i][0]·B[0][j]) + A[i][1]·B[1][j]) + …) + A[i][k-1]·B[k-1][j]
//
// with C[i][j] at c[i*ldc+j], A[i][kk] at a[i*ai+kk*ak] and B[kk][j] at
// b[kk*ldb+j]. Every product is rounded, then added to the running value;
// no two terms are summed first. Every dense product of the minibatch
// pass goes through it, so both bodies must return the bits of that
// scalar chain for every element. C must not overlap A or B.
func gemm(m, n, k int, a []float64, ai, ak int, b []float64, ldb int, c []float64, ldc int) {
	if m < 0 || n < 0 || k < 0 || ai < 0 || ak < 0 || ldb < n || ldc < n {
		panic(fmt.Sprintf("nn: gemm of %d×%d×%d with strides %d, %d, %d, %d", m, n, k, ai, ak, ldb, ldc))
	}
	if m == 0 || n == 0 || k == 0 {
		return
	}
	if len(a) <= (m-1)*ai+(k-1)*ak || len(b) < (k-1)*ldb+n || len(c) < (m-1)*ldc+n {
		panic(fmt.Sprintf("nn: gemm of %d×%d×%d with operands of %d, %d, %d", m, n, k, len(a), len(b), len(c)))
	}
	done := 0
	if gemmAsm != nil {
		done = n &^ 15
		if done > 0 {
			gemmAsm(m, done, k, a, ai, ak, b, ldb, c, ldc)
		}
	}
	if done < n {
		gemmGo(m, n-done, k, a, ai, ak, b[done:], ldb, c[done:], ldc)
	}
}

// gemmGo is gemm's body on every GOARCH, and the reference its assembly
// body is tested against. It runs in axpy order, kk outer and j inner,
// adding four terms to a whole row of C per pass, so it streams through
// rows of B and C.
func gemmGo(m, n, k int, a []float64, ai, ak int, b []float64, ldb int, c []float64, ldc int) {
	for i := 0; i < m; i++ {
		ci := c[i*ldc:][:n]
		ar := a[i*ai:]
		kk := 0
		for ; kk+4 <= k; kk += 4 {
			a0, a1, a2, a3 := ar[kk*ak], ar[(kk+1)*ak], ar[(kk+2)*ak], ar[(kk+3)*ak]
			b0 := b[kk*ldb:][:len(ci)]
			b1 := b[(kk+1)*ldb:][:len(ci)]
			b2 := b[(kk+2)*ldb:][:len(ci)]
			b3 := b[(kk+3)*ldb:][:len(ci)]
			for j, v := range ci {
				ci[j] = (((v + a0*b0[j]) + a1*b1[j]) + a2*b2[j]) + a3*b3[j]
			}
		}
		for ; kk < k; kk++ {
			av := ar[kk*ak]
			for j, bv := range b[kk*ldb:][:len(ci)] {
				ci[j] += av * bv
			}
		}
	}
}
