package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Adam is the Adam optimizer (the paper's side-task example uses Adam).
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t     int
	state map[*Dense]*adamState
}

type adamState struct {
	mW, vW []float64
	mB, vB []float64
}

// NewAdam returns an Adam optimizer with standard defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, state: make(map[*Dense]*adamState)}
}

// Update applies one Adam step. Callers must invoke it once per layer per
// optimization step; the bias-correction timestep advances per layer-set
// pass (call Tick once per step).
func (a *Adam) Update(layer *Dense) {
	st, ok := a.state[layer]
	if !ok {
		st = &adamState{
			mW: make([]float64, len(layer.W.Data)), vW: make([]float64, len(layer.W.Data)),
			mB: make([]float64, len(layer.B)), vB: make([]float64, len(layer.B)),
		}
		a.state[layer] = st
	}
	t := float64(a.t)
	if t < 1 {
		t = 1
	}
	c1 := 1 - math.Pow(a.Beta1, t)
	c2 := 1 - math.Pow(a.Beta2, t)
	w, b := layer.W.Data, layer.B
	adamStep(w, layer.GradW.Data[:len(w)], st.mW[:len(w)], st.vW[:len(w)], a.Beta1, a.Beta2, a.LR, a.Eps, c1, c2)
	adamStep(b, layer.GradB[:len(b)], st.mB[:len(b)], st.vB[:len(b)], a.Beta1, a.Beta2, a.LR, a.Eps, c1, c2)
}

// Tick advances Adam's bias-correction timestep; call once per train step.
func (a *Adam) Tick() { a.t++ }

// MLP is a multi-layer perceptron classifier.
type MLP struct {
	layers []*Dense
	relus  []*ReLU
}

// NewMLP builds layers sized dims[0] -> dims[1] -> ... -> dims[n-1].
func NewMLP(dims []int, rng *rand.Rand) (*MLP, error) {
	if len(dims) < 2 {
		return nil, fmt.Errorf("nn: MLP needs at least 2 dims, got %v", dims)
	}
	if slices.Min(dims) < 1 {
		return nil, fmt.Errorf("nn: MLP dims must be positive, got %v", dims)
	}
	m := &MLP{}
	for i := 0; i+1 < len(dims); i++ {
		m.layers = append(m.layers, NewDense(dims[i], dims[i+1], rng))
		if i+2 < len(dims) {
			m.relus = append(m.relus, &ReLU{})
		}
	}
	return m, nil
}

// Forward computes logits, valid until the next Forward.
func (m *MLP) Forward(x *Matrix) (*Matrix, error) {
	h := x
	var err error
	for i, l := range m.layers {
		h, err = l.Forward(h)
		if err != nil {
			return nil, err
		}
		if i < len(m.relus) {
			h = m.relus[i].Forward(h)
		}
	}
	return h, nil
}

// Backward propagates the logits gradient through all layers. The first
// layer computes its parameter gradients only.
func (m *MLP) Backward(grad *Matrix) error {
	g := grad
	for i := len(m.layers) - 1; ; i-- {
		if i < len(m.relus) {
			g = m.relus[i].Backward(g)
		}
		if i == 0 {
			return m.layers[0].backwardParams(g)
		}
		var err error
		if g, err = m.layers[i].Backward(g); err != nil {
			return err
		}
	}
}

// Layers exposes the trainable layers for the optimizer.
func (m *MLP) Layers() []*Dense { return m.layers }

// Dataset is a synthetic classification problem with planted linear
// structure plus noise, standing in for the image datasets of the paper's
// training side tasks.
type Dataset struct {
	X       *Matrix
	Y       []int
	classes int
	rng     *rand.Rand
}

// SyntheticDataset generates n samples of dim features in k classes.
func SyntheticDataset(n, dim, k int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	proto := NewMatrix(k, dim)
	for i := range proto.Data {
		proto.Data[i] = rng.NormFloat64()
	}
	x := NewMatrix(n, dim)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := rng.Intn(k)
		y[i] = c
		for j := 0; j < dim; j++ {
			x.Set(i, j, proto.At(c, j)+0.3*rng.NormFloat64())
		}
	}
	return &Dataset{X: x, Y: y, classes: k, rng: rng}
}

// Batch samples a fresh batch with replacement.
func (d *Dataset) Batch(size int) (*Matrix, []int) {
	x, y := &Matrix{}, make([]int, size)
	d.fill(x, y)
	return x, y
}

// fill samples len(y) rows with replacement into x (resized) and y.
func (d *Dataset) fill(x *Matrix, y []int) {
	x.resize(len(y), d.X.Cols)
	for i := range y {
		idx := d.rng.Intn(d.X.Rows)
		copy(x.row(i), d.X.row(idx))
		y[i] = d.Y[idx]
	}
}

// Trainer bundles model, data and optimizer into the step-wise workload the
// iterative interface wraps: one TrainStep = one batch forward + backward +
// update (exactly the loop in the paper's Figure 6).
type Trainer struct {
	model *MLP
	data  *Dataset
	opt   *Adam
	steps int

	// The batch and the logits gradient, reused by every step.
	x, grad Matrix
	y       []int
}

// NewTrainer assembles a training side-task workload.
func NewTrainer(dims []int, dataN, batch int, lr float64, seed int64) (*Trainer, error) {
	if dataN < 1 || batch < 1 {
		return nil, fmt.Errorf("nn: trainer needs a positive dataset and batch size, got %d and %d", dataN, batch)
	}
	rng := rand.New(rand.NewSource(seed))
	m, err := NewMLP(dims, rng)
	if err != nil {
		return nil, err
	}
	return &Trainer{
		model: m,
		data:  SyntheticDataset(dataN, dims[0], dims[len(dims)-1], seed+1),
		opt:   NewAdam(lr),
		y:     make([]int, batch),
	}, nil
}

// TrainStep runs one optimization step and returns the batch loss.
func (t *Trainer) TrainStep() (float64, error) {
	t.data.fill(&t.x, t.y)
	logits, err := t.model.Forward(&t.x)
	if err != nil {
		return 0, err
	}
	loss, err := softmaxCrossEntropy(&t.grad, logits, t.y)
	if err != nil {
		return 0, err
	}
	if err := t.model.Backward(&t.grad); err != nil {
		return 0, err
	}
	t.opt.Tick()
	for _, l := range t.model.Layers() {
		t.opt.Update(l)
	}
	t.steps++
	return loss, nil
}

// Steps reports completed train steps.
func (t *Trainer) Steps() int { return t.steps }
