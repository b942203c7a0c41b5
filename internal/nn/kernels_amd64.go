package nn

// mulRow adds vs[t]·(row ks[t] of b) into o for ascending t: every four
// terms make one pass, o[j] + v0·b0[j] + v1·b1[j] + v2·b2[j] + v3·b3[j]
// left-associated, and each term left over makes a pass o[j] + v·b[j]. Row k
// of b is b[k*len(o):][:len(o)]. The assembly checks no bounds: the caller
// guarantees len(vs) == len(ks) and that every row named in ks lies in b.
//
//go:noescape
func mulRow(o, b []float64, ks []int, vs []float64)

// adamStep is one Adam update of w from grad, with moments m and v, in
// Adam.Update's arithmetic. The assembly checks no bounds: grad, m and v
// hold at least len(w) elements.
//
//go:noescape
func adamStep(w, grad, m, v []float64, beta1, beta2, lr, eps, c1, c2 float64)
