package graph

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFromEdgesBasics(t *testing.T) {
	g, err := FromEdges(4, [][2]int32{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	if g.NumEdges() != 4 { // duplicate (0,1) removed
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	if g.OutDegree(0) != 2 || g.OutDegree(3) != 0 {
		t.Fatalf("degrees wrong: %d %d", g.OutDegree(0), g.OutDegree(3))
	}
	nbrs := g.Neighbors(0)
	if len(nbrs) != 2 || nbrs[0] != 1 || nbrs[1] != 2 {
		t.Fatalf("Neighbors(0) = %v", nbrs)
	}
}

func TestFromEdgesRejectsOutOfRange(t *testing.T) {
	if _, err := FromEdges(2, [][2]int32{{0, 5}}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if _, err := FromEdges(0, nil); err == nil {
		t.Fatal("zero nodes accepted")
	}
}

func TestRMATDeterministic(t *testing.T) {
	a := RMAT(RMATConfig{Nodes: 1 << 10, EdgeFactor: 8, Seed: 7})
	b := RMAT(RMATConfig{Nodes: 1 << 10, EdgeFactor: 8, Seed: 7})
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("same seed, different edges: %d vs %d", a.NumEdges(), b.NumEdges())
	}
	c := RMAT(RMATConfig{Nodes: 1 << 10, EdgeFactor: 8, Seed: 8})
	if a.NumEdges() == c.NumEdges() && equalCols(a, c) {
		t.Fatal("different seeds produced identical graphs")
	}
}

func equalCols(a, b *CSR) bool {
	if len(a.Cols) != len(b.Cols) {
		return false
	}
	for i := range a.Cols {
		if a.Cols[i] != b.Cols[i] {
			return false
		}
	}
	return true
}

func TestRMATSkewedDegrees(t *testing.T) {
	g := RMAT(RMATConfig{Nodes: 1 << 12, EdgeFactor: 16, Seed: 42})
	var maxDeg int64
	for u := 0; u < g.NumNodes(); u++ {
		if d := g.OutDegree(u); d > maxDeg {
			maxDeg = d
		}
	}
	mean := float64(g.NumEdges()) / float64(g.NumNodes())
	if float64(maxDeg) < 8*mean {
		t.Fatalf("max degree %d not skewed vs mean %.1f — not power-law-ish", maxDeg, mean)
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	g := RMAT(RMATConfig{Nodes: 1 << 10, EdgeFactor: 8, Seed: 1})
	pr := NewPageRank(g, 0.85)
	for i := 0; i < 10; i++ {
		pr.Step()
		var sum float64
		for _, r := range pr.Ranks() {
			sum += r
		}
		if math.Abs(sum-1.0) > 1e-9 {
			t.Fatalf("iter %d: rank sum = %v, want 1", i, sum)
		}
	}
}

func TestPageRankConverges(t *testing.T) {
	g := RMAT(RMATConfig{Nodes: 1 << 10, EdgeFactor: 8, Seed: 1})
	pr := NewPageRank(g, 0.85)
	var prev float64 = math.Inf(1)
	for i := 0; i < 50 && !pr.Converged(1e-9); i++ {
		d := pr.Step()
		if d > prev*1.01 { // deltas must shrink (allow tiny wobble)
			t.Fatalf("delta increased: %v -> %v at iter %d", prev, d, i)
		}
		prev = d
	}
	if !pr.Converged(1e-6) {
		t.Fatalf("did not converge in 50 iters; delta=%v", pr.Delta())
	}
	if pr.Iterations() == 0 {
		t.Fatal("iteration counter not advanced")
	}
}

func TestPageRankKnownGraph(t *testing.T) {
	// Star graph: everything points at node 0 → node 0 gets the top rank.
	edges := [][2]int32{{1, 0}, {2, 0}, {3, 0}, {4, 0}}
	g, _ := FromEdges(5, edges)
	pr := NewPageRank(g, 0.85)
	for i := 0; i < 60; i++ {
		pr.Step()
	}
	ranks := pr.Ranks()
	for i := 1; i < 5; i++ {
		if ranks[0] <= ranks[i] {
			t.Fatalf("hub rank %v not above leaf %v", ranks[0], ranks[i])
		}
	}
}

// Property: rank vector stays a probability distribution for arbitrary
// small graphs.
func TestPageRankStochasticProperty(t *testing.T) {
	f := func(rawEdges []uint16, steps uint8) bool {
		n := 12
		var edges [][2]int32
		for _, e := range rawEdges {
			u := int32(e) % int32(n)
			v := int32(e>>4) % int32(n)
			if u != v {
				edges = append(edges, [2]int32{u, v})
			}
		}
		g, err := FromEdges(n, edges)
		if err != nil {
			return false
		}
		pr := NewPageRank(g, 0.85)
		for i := 0; i < int(steps%16)+1; i++ {
			pr.Step()
		}
		var sum float64
		for _, r := range pr.Ranks() {
			if r < 0 {
				return false
			}
			sum += r
		}
		return math.Abs(sum-1.0) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSGDMFLearns(t *testing.T) {
	ratings := SyntheticRatings(64, 64, 4000, 4, 11)
	m := NewSGDMF(SGDMFConfig{Users: 64, Items: 64, K: 8, Seed: 3}, ratings)
	first := m.Step()
	var last float64
	for i := 0; i < 25; i++ {
		last = m.Step()
	}
	if last >= first*0.8 {
		t.Fatalf("RMSE did not improve: first=%.4f last=%.4f", first, last)
	}
	if m.Epochs() != 26 {
		t.Fatalf("Epochs = %d, want 26", m.Epochs())
	}
	if m.RMSE() != last {
		t.Fatalf("RMSE() = %v, want %v", m.RMSE(), last)
	}
}

func TestSGDMFDeterministicWithSeed(t *testing.T) {
	ratings := SyntheticRatings(32, 32, 1000, 4, 5)
	a := NewSGDMF(SGDMFConfig{Users: 32, Items: 32, Seed: 9}, ratings)
	b := NewSGDMF(SGDMFConfig{Users: 32, Items: 32, Seed: 9}, ratings)
	for i := 0; i < 3; i++ {
		if ra, rb := a.Step(), b.Step(); ra != rb {
			t.Fatalf("same seed diverged at step %d: %v vs %v", i, ra, rb)
		}
	}
}

// refSGDMFStep is Step as it was while it drew its order from rand.Perm: a
// fresh permutation per pass.
func refSGDMFStep(m *SGDMF) float64 {
	n := len(m.ratings)
	var sqErr float64
	for _, idx := range m.rng.Perm(n) {
		r := m.ratings[idx]
		pu := m.p[int(r.User)*m.k : int(r.User)*m.k+m.k]
		qi := m.q[int(r.Item)*m.k : int(r.Item)*m.k+m.k]
		var pred float64
		for j := 0; j < m.k; j++ {
			pred += pu[j] * qi[j]
		}
		err := float64(r.Value) - pred
		sqErr += err * err
		for j := 0; j < m.k; j++ {
			pj, qj := pu[j], qi[j]
			pu[j] += m.lr * (err*qj - m.reg*pj)
			qi[j] += m.lr * (err*pj - m.reg*qj)
		}
	}
	return math.Sqrt(sqErr / float64(n))
}

// The reused order buffer draws what rand.Perm draws: every pass visits the
// ratings in the same order and ends on the same RMSE and factors, bit for
// bit, and allocates nothing.
func TestSGDMFStepMatchesPermReferenceAllocFree(t *testing.T) {
	ratings := SyntheticRatings(128, 128, 4096, 8, 7)
	cfg := SGDMFConfig{Users: 128, Items: 128, K: 8, Seed: 8}
	m, ref := NewSGDMF(cfg, ratings), NewSGDMF(cfg, ratings)
	for pass := 0; pass < 50; pass++ {
		got, want := m.Step(), refSGDMFStep(ref)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("pass %d: RMSE %v, rand.Perm reference %v", pass, got, want)
		}
	}
	for _, f := range []struct {
		name      string
		got, want []float64
	}{{"p", m.p, ref.p}, {"q", m.q, ref.q}} {
		for i := range f.want {
			if math.Float64bits(f.got[i]) != math.Float64bits(f.want[i]) {
				t.Fatalf("%s[%d] = %v, reference %v", f.name, i, f.got[i], f.want[i])
			}
		}
	}
	if n := testing.AllocsPerRun(20, func() { m.Step() }); n != 0 {
		t.Fatalf("Step allocates %v times per pass, want 0", n)
	}
}

func BenchmarkPageRankStep(b *testing.B) {
	g := RMAT(RMATConfig{Nodes: 1 << 12, EdgeFactor: 16, Seed: 1})
	pr := NewPageRank(g, 0.85)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr.Step()
	}
}

func BenchmarkSGDMFStep(b *testing.B) {
	ratings := SyntheticRatings(256, 256, 20000, 8, 1)
	m := NewSGDMF(SGDMFConfig{Users: 256, Items: 256, K: 16, Seed: 1}, ratings)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
}
