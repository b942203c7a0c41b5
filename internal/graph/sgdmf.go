package graph

import (
	"math"
	"math/rand"
)

// SGDMF solves matrix factorization with stochastic gradient descent — the
// paper's "Graph SGD" side task [26]: ratings R(u,i) are approximated by
// P[u]·Q[i] with latent factor vectors trained one pass per Step.
type SGDMF struct {
	users, items, k int
	ratings         []Rating
	p, q            []float64 // row-major latent factors
	lr, reg         float64
	rng             *rand.Rand
	perm            []int // the pass order, reshuffled in place by every Step
	epochs          int
	lastRMSE        float64
}

// Rating is one observed (user, item, value) entry.
type Rating struct {
	User  int32
	Item  int32
	Value float32
}

// SGDMFConfig parameterizes the factorization.
type SGDMFConfig struct {
	Users, Items int
	// K is the latent dimension.
	K int
	// LearnRate and Reg are the SGD step size and L2 regularizer.
	LearnRate, Reg float64
	Seed           int64
}

func (c *SGDMFConfig) normalize() {
	if c.K <= 0 {
		c.K = 16
	}
	if c.LearnRate <= 0 {
		c.LearnRate = 0.01
	}
	if c.Reg <= 0 {
		c.Reg = 0.02
	}
}

// NewSGDMF builds a model over the given ratings.
func NewSGDMF(cfg SGDMFConfig, ratings []Rating) *SGDMF {
	cfg.normalize()
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &SGDMF{
		users: cfg.Users, items: cfg.Items, k: cfg.K,
		ratings: ratings,
		p:       make([]float64, cfg.Users*cfg.K),
		q:       make([]float64, cfg.Items*cfg.K),
		lr:      cfg.LearnRate, reg: cfg.Reg,
		rng:      rng,
		perm:     make([]int, len(ratings)),
		lastRMSE: math.Inf(1),
	}
	scale := 1.0 / math.Sqrt(float64(cfg.K))
	for i := range m.p {
		m.p[i] = rng.Float64() * scale
	}
	for i := range m.q {
		m.q[i] = rng.Float64() * scale
	}
	return m
}

// SyntheticRatings generates a deterministic rating set with planted
// low-rank structure, standing in for the Orkut-derived workload.
func SyntheticRatings(users, items, count, k int, seed int64) []Rating {
	rng := rand.New(rand.NewSource(seed))
	// Planted factors.
	pu := make([]float64, users*k)
	qi := make([]float64, items*k)
	for i := range pu {
		pu[i] = rng.NormFloat64()
	}
	for i := range qi {
		qi[i] = rng.NormFloat64()
	}
	out := make([]Rating, count)
	for n := range out {
		u := rng.Intn(users)
		i := rng.Intn(items)
		var dot float64
		for j := 0; j < k; j++ {
			dot += pu[u*k+j] * qi[i*k+j]
		}
		out[n] = Rating{User: int32(u), Item: int32(i), Value: float32(dot + 0.05*rng.NormFloat64())}
	}
	return out
}

// Step performs one SGD pass over all ratings (in shuffled order) and
// returns the RMSE observed during the pass. The order is rand.Perm's own
// recurrence — the same draws, the same permutation — written into the
// model's one buffer, so a pass allocates nothing.
func (m *SGDMF) Step() float64 {
	n := len(m.ratings)
	var sqErr float64
	for i := range m.perm {
		j := m.rng.Intn(i + 1)
		m.perm[i] = m.perm[j]
		m.perm[j] = i
	}
	for _, idx := range m.perm {
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
	m.epochs++
	m.lastRMSE = math.Sqrt(sqErr / float64(n))
	return m.lastRMSE
}

// RMSE reports the last pass's root-mean-square error.
func (m *SGDMF) RMSE() float64 { return m.lastRMSE }

// Epochs reports completed passes.
func (m *SGDMF) Epochs() int { return m.epochs }
