package nn

import (
	"fmt"
	"math"
)

// adamCoef holds the scalars of one Adam step: the decay rates, their
// complements 1−β, the learning rate, the bias corrections 1−βᵗ and ε.
type adamCoef struct {
	beta1, c1, beta2, c2, lr, bc1, bc2, eps float64
}

// adamAsm is adamStep's assembly body, set at init where this GOARCH has
// one and the CPU can run it. While it is nil, adamStep runs adamGo; tests
// set it to nil to force the Go body.
var adamAsm func(p, g, m, v []float64, h adamCoef)

// adamStep applies one Adam update to the parameters p from their
// gradients g and moments m and v, element by element:
//
//	m = β₁·m + (1−β₁)·g
//	v = β₂·v + ((1−β₂)·g)·g
//	p = p − (lr·(m/bc₁)) / (√(v/bc₂) + ε)
//
// Both bodies must return the bits of those scalar expressions.
func adamStep(p, g, m, v []float64, h adamCoef) {
	if len(g) != len(p) || len(m) != len(p) || len(v) != len(p) {
		panic(fmt.Sprintf("nn: Adam step on tensors of %d, %d, %d, %d values", len(p), len(g), len(m), len(v)))
	}
	if adamAsm != nil {
		adamAsm(p, g, m, v, h)
		return
	}
	adamGo(p, g, m, v, h)
}

// adamGo is adamStep's body on every GOARCH, and the reference its
// assembly body is tested against.
func adamGo(p, g, m, v []float64, h adamCoef) {
	g, m, v = g[:len(p)], m[:len(p)], v[:len(p)]
	for j, gj := range g {
		m[j] = h.beta1*m[j] + h.c1*gj
		v[j] = h.beta2*v[j] + h.c2*gj*gj
		p[j] -= h.lr * (m[j] / h.bc1) / (math.Sqrt(v[j]/h.bc2) + h.eps)
	}
}
