//go:build !amd64

package nn

import "math"

// mulRow adds vs[t]·(row ks[t] of b) into o for ascending t: every four
// terms make one pass, o[j] + v0·b0[j] + v1·b1[j] + v2·b2[j] + v3·b3[j]
// left-associated, and each term left over makes a pass o[j] + v·b[j]. Row k
// of b is b[k*len(o):][:len(o)].
func mulRow(o, b []float64, ks []int, vs []float64) {
	n, t := len(o), 0
	for ; t+4 <= len(ks); t += 4 {
		a0, a1, a2, a3 := vs[t], vs[t+1], vs[t+2], vs[t+3]
		// Resliced to len(o) so the pass checks no bounds.
		b0, b1 := b[ks[t]*n:][:n], b[ks[t+1]*n:][:n]
		b2, b3 := b[ks[t+2]*n:][:n], b[ks[t+3]*n:][:n]
		for j := range o {
			o[j] = o[j] + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
		}
	}
	for ; t < len(ks); t++ {
		a0, b0 := vs[t], b[ks[t]*n:][:n]
		for j := range o {
			o[j] += a0 * b0[j]
		}
	}
}

// adamStep is one Adam update of w from grad, with moments m and v.
func adamStep(w, grad, m, v []float64, beta1, beta2, lr, eps, c1, c2 float64) {
	for i := range w {
		g := grad[i]
		m[i] = beta1*m[i] + (1-beta1)*g
		v[i] = beta2*v[i] + (1-beta2)*g*g
		w[i] -= lr * (m[i] / c1) / (math.Sqrt(v[i]/c2) + eps)
	}
}
