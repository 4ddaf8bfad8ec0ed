package nn

import "fmt"

// fold4Asm is fold4's assembly body, set at init where this GOARCH has
// one and the CPU can run it. While it is nil, fold4 runs fold4Go; tests
// set it to nil to force the Go body.
var fold4Asm func(y []float64, a0, a1, a2, a3 float64, x0, x1, x2, x3 []float64)

// fold4 adds four scaled vectors to y, one at a time:
//
//	y[k] = (((y[k] + a0·x0[k]) + a1·x1[k]) + a2·x2[k]) + a3·x3[k]
//
// Every product is rounded, then added to the running value; no two
// terms are summed first. Every dense product of the minibatch pass goes
// through it, so both bodies must return the bits of that scalar
// expression for every k.
func fold4(y []float64, a0, a1, a2, a3 float64, x0, x1, x2, x3 []float64) {
	n := len(y)
	if len(x0) < n || len(x1) < n || len(x2) < n || len(x3) < n {
		panic(fmt.Sprintf("nn: fold4 of %d elements with operands of %d, %d, %d, %d", n, len(x0), len(x1), len(x2), len(x3)))
	}
	if fold4Asm != nil {
		fold4Asm(y, a0, a1, a2, a3, x0, x1, x2, x3)
		return
	}
	fold4Go(y, a0, a1, a2, a3, x0, x1, x2, x3)
}

// fold4Go is fold4's body on every GOARCH, and the reference its
// assembly body is tested against.
func fold4Go(y []float64, a0, a1, a2, a3 float64, x0, x1, x2, x3 []float64) {
	x0, x1, x2, x3 = x0[:len(y)], x1[:len(y)], x2[:len(y)], x3[:len(y)]
	for k, v := range y {
		y[k] = (((v + a0*x0[k]) + a1*x1[k]) + a2*x2[k]) + a3*x3[k]
	}
}

// fold1 is fold4 for one term: y[k] += a·x[k]. It takes the one to three
// terms left over when a count is not a multiple of four.
func fold1(y []float64, a float64, x []float64) {
	x = x[:len(y)]
	for k := range y {
		y[k] += a * x[k]
	}
}
