package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatMulKnown(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}}
	b := &Matrix{Rows: 3, Cols: 2, Data: []float64{7, 8, 9, 10, 11, 12}}
	c, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("MatMul = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulShapeMismatch(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	if _, err := MatMul(a, b); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(rows, cols uint8, seed int64) bool {
		r := int(rows%6) + 1
		c := int(cols%6) + 1
		rng := rand.New(rand.NewSource(seed))
		m := NewMatrix(r, c)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		back := Transpose(Transpose(m))
		for i := range m.Data {
			if back.Data[i] != m.Data[i] {
				return false
			}
		}
		return back.Rows == r && back.Cols == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxCrossEntropyKnown(t *testing.T) {
	// Uniform logits over 4 classes: loss = ln(4).
	logits := NewMatrix(1, 4)
	loss, grad, err := SoftmaxCrossEntropy(logits, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(loss-math.Log(4)) > 1e-12 {
		t.Fatalf("loss = %v, want ln(4)", loss)
	}
	// Gradient: softmax - onehot = 0.25 everywhere except -0.75 at label.
	for j := 0; j < 4; j++ {
		want := 0.25
		if j == 2 {
			want = -0.75
		}
		if math.Abs(grad.At(0, j)-want) > 1e-12 {
			t.Fatalf("grad[%d] = %v, want %v", j, grad.At(0, j), want)
		}
	}
}

func TestSoftmaxCrossEntropyBadLabel(t *testing.T) {
	logits := NewMatrix(1, 3)
	if _, _, err := SoftmaxCrossEntropy(logits, []int{7}); err == nil {
		t.Fatal("out-of-range label accepted")
	}
	if _, _, err := SoftmaxCrossEntropy(logits, []int{0, 1}); err == nil {
		t.Fatal("label-count mismatch accepted")
	}
}

// Numerical gradient check: the analytic dL/dW of a Dense layer matches
// finite differences.
func TestDenseGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	layer := NewDense(5, 3, rng)
	x := NewMatrix(4, 5)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	labels := []int{0, 1, 2, 1}

	lossAt := func() float64 {
		out, err := layer.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		loss, _, err := SoftmaxCrossEntropy(out, labels)
		if err != nil {
			t.Fatal(err)
		}
		return loss
	}

	// Analytic gradients.
	out, _ := layer.Forward(x)
	_, grad, _ := SoftmaxCrossEntropy(out, labels)
	if _, err := layer.Backward(grad); err != nil {
		t.Fatal(err)
	}

	const eps = 1e-6
	for _, idx := range []int{0, 3, 7, 14} {
		orig := layer.W.Data[idx]
		layer.W.Data[idx] = orig + eps
		up := lossAt()
		layer.W.Data[idx] = orig - eps
		down := lossAt()
		layer.W.Data[idx] = orig
		numeric := (up - down) / (2 * eps)
		analytic := layer.GradW.Data[idx]
		if math.Abs(numeric-analytic) > 1e-5*(1+math.Abs(numeric)) {
			t.Fatalf("grad W[%d]: analytic %v vs numeric %v", idx, analytic, numeric)
		}
	}
}

func TestReLUForwardBackward(t *testing.T) {
	r := &ReLU{}
	x := &Matrix{Rows: 1, Cols: 4, Data: []float64{-1, 2, 0, 3}}
	out := r.Forward(x)
	want := []float64{0, 2, 0, 3}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("ReLU fwd = %v", out.Data)
		}
	}
	g := &Matrix{Rows: 1, Cols: 4, Data: []float64{5, 5, 5, 5}}
	back := r.Backward(g)
	wantG := []float64{0, 5, 0, 5}
	for i := range wantG {
		if back.Data[i] != wantG[i] {
			t.Fatalf("ReLU bwd = %v", back.Data)
		}
	}
}

func TestTrainerLossDecreases(t *testing.T) {
	tr, err := NewTrainer([]int{16, 32, 4}, 512, 32, 0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	first, err := tr.TrainStep()
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 60; i++ {
		last, err = tr.TrainStep()
		if err != nil {
			t.Fatal(err)
		}
	}
	if last >= first*0.5 {
		t.Fatalf("loss did not halve: first=%.4f last=%.4f", first, last)
	}
	if tr.Steps() != 61 {
		t.Fatalf("Steps = %d, want 61", tr.Steps())
	}
}

func TestMLPValidation(t *testing.T) {
	if _, err := NewMLP([]int{5}, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("single-dim MLP accepted")
	}
}

func TestDatasetBatchShape(t *testing.T) {
	d := SyntheticDataset(100, 8, 3, 1)
	x, y := d.Batch(16)
	if x.Rows != 16 || x.Cols != 8 || len(y) != 16 {
		t.Fatalf("batch shape %dx%d/%d", x.Rows, x.Cols, len(y))
	}
	for _, label := range y {
		if label < 0 || label >= 3 {
			t.Fatalf("label %d out of range", label)
		}
	}
}

// The reference arithmetic: the package's products and layers as they were
// before the in-place kernels — a fresh matrix from every op, materialised
// transposes, one k per pass over the output row. The kernels and the trainer
// must reproduce it bit for bit on whatever GOARCH the test runs on (where
// the compiler fuses x*y + z, it fuses both sides alike or this file says so).
// On amd64 the kernels are SSE2 assembly, which never fuses, and the compiler
// fuses nothing there at any GOAMD64 level; GOARCH=386 runs the Go loops.

func refMatMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*b.Cols : (i+1)*b.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

func refTranspose(m *Matrix) *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*m.Rows+i] = m.Data[i*m.Cols+j]
		}
	}
	return out
}

// refLayer runs the old Dense / ReLU bodies over a real Dense's parameters.
type refLayer struct {
	d      *Dense
	lastIn *Matrix
	mask   []bool
}

func (l *refLayer) forward(x *Matrix) *Matrix {
	out := refMatMul(x, l.d.W)
	for i := 0; i < out.Rows; i++ {
		for j := 0; j < out.Cols; j++ {
			out.Data[i*out.Cols+j] += l.d.B[j]
		}
	}
	l.lastIn = x
	return out
}

func (l *refLayer) backward(gradOut *Matrix) *Matrix {
	copy(l.d.GradW.Data, refMatMul(refTranspose(l.lastIn), gradOut).Data)
	for j := 0; j < gradOut.Cols; j++ {
		var sum float64
		for i := 0; i < gradOut.Rows; i++ {
			sum += gradOut.At(i, j)
		}
		l.d.GradB[j] = sum
	}
	return refMatMul(gradOut, refTranspose(l.d.W))
}

func (l *refLayer) relu(x *Matrix) *Matrix {
	out := NewMatrix(x.Rows, x.Cols)
	l.mask = make([]bool, len(x.Data))
	for i, v := range x.Data {
		if v > 0 {
			out.Data[i] = v
			l.mask[i] = true
		}
	}
	return out
}

func (l *refLayer) reluBackward(gradOut *Matrix) *Matrix {
	out := NewMatrix(gradOut.Rows, gradOut.Cols)
	for i, v := range gradOut.Data {
		if l.mask[i] {
			out.Data[i] = v
		}
	}
	return out
}

// refTrainStep is the old Trainer.TrainStep over tr's model, data and
// optimizer: every layer, the first included, computes its dL/dx.
func refTrainStep(t *testing.T, tr *Trainer, layers []*refLayer) float64 {
	t.Helper()
	h, y := tr.data.Batch(len(tr.y))
	for i, l := range layers {
		h = l.forward(h)
		if i+1 < len(layers) {
			h = l.relu(h)
		}
	}
	loss, g, err := SoftmaxCrossEntropy(h, y)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(layers) - 1; i >= 0; i-- {
		if i+1 < len(layers) {
			g = layers[i].reluBackward(g)
		}
		g = layers[i].backward(g)
	}
	tr.opt.Tick()
	for _, l := range layers {
		refAdamUpdate(tr.opt, l.d)
	}
	return loss
}

// refAdamUpdate is the old Adam.Update: one scalar loop per parameter slice,
// keeping its moments in a's state like Update does.
func refAdamUpdate(a *Adam, layer *Dense) {
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
	for i := range layer.W.Data {
		g := layer.GradW.Data[i]
		st.mW[i] = a.Beta1*st.mW[i] + (1-a.Beta1)*g
		st.vW[i] = a.Beta2*st.vW[i] + (1-a.Beta2)*g*g
		layer.W.Data[i] -= a.LR * (st.mW[i] / c1) / (math.Sqrt(st.vW[i]/c2) + a.Eps)
	}
	for i := range layer.B {
		g := layer.GradB[i]
		st.mB[i] = a.Beta1*st.mB[i] + (1-a.Beta1)*g
		st.vB[i] = a.Beta2*st.vB[i] + (1-a.Beta2)*g*g
		layer.B[i] -= a.LR * (st.mB[i] / c1) / (math.Sqrt(st.vB[i]/c2) + a.Eps)
	}
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// randomMatrix draws a matrix whose entries are zero (of either sign) with
// probability zeros, and whose row zeroRow, if it exists, is all zero.
func randomMatrix(rng *rand.Rand, rows, cols int, zeros float64, zeroRow int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		switch {
		case i/cols == zeroRow || rng.Float64() < zeros:
			m.Data[i] = math.Copysign(0, rng.Float64()-0.5)
		default:
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

func TestKernelsMatchReferenceBitForBit(t *testing.T) {
	check := func(name string, a, b *Matrix) {
		t.Helper()
		want := refMatMul(a, b).Data
		at, bt := refTranspose(a), refTranspose(b)
		for _, k := range []struct {
			name string
			run  func(out *Matrix)
		}{
			{"A·B", func(out *Matrix) { mulAB(out, a, b) }},
			{"Aᵀ·B", func(out *Matrix) { mulAtB(out, at, b) }},
			{"A·Bᵀ as Dense.Backward takes it", func(out *Matrix) {
				var btt Matrix
				transpose(&btt, bt)
				mulAB(out, a, &btt)
			}},
		} {
			// A kernel overwrites whatever its output held.
			out := NewMatrix(a.Rows, b.Cols)
			for i := range out.Data {
				out.Data[i] = math.NaN()
			}
			k.run(out)
			sameBits(t, name+": "+k.name, out.Data, want)
		}
	}
	rng := rand.New(rand.NewSource(23))
	// Every dimension runs over 1…70, so k and j counts that are 0–3 mod 4
	// and rows longer than one gather segment all occur.
	for n := 0; n < 400; n++ {
		rows, inner, cols := 1+rng.Intn(70), 1+rng.Intn(70), 1+rng.Intn(70)
		if n < 70 {
			rows, inner, cols = 1+(n*7)%5, n+1, 70-n
		}
		zeros := []float64{0, 0.5, 0.9, 1}[n%4]
		a := randomMatrix(rng, rows, inner, zeros, rng.Intn(2*rows))
		b := randomMatrix(rng, inner, cols, 0.2, -1)
		if n%8 >= 4 {
			// x + 0·b is x for every finite b, so only an infinite b shows
			// whether a zero a_ik was skipped (0·Inf is NaN).
			b.Data[rng.Intn(len(b.Data))] = math.Inf(1)
			b.Data[rng.Intn(len(b.Data))] = math.Inf(-1)
		}
		check(fmt.Sprintf("#%d %dx%dx%d zeros %.1f", n, rows, inner, cols, zeros), a, b)
	}
	// One non-zero in a row, at every position of a four-group and across the
	// segment boundary; inner 1 is the 1×1 product.
	for _, inner := range []int{1, 2, 3, 4, 5, 63, 64, 65, 70} {
		for k := 0; k < inner; k++ {
			a := NewMatrix(1, inner)
			a.Data[k] = -1.5
			b := randomMatrix(rng, inner, 1+k%7, 0.2, -1)
			check(fmt.Sprintf("single non-zero %d of %d", k, inner), a, b)
		}
	}
}

// mul's check stands between the kernel's unchecked reads of B and a B that
// is too short for the product: it panics before any row is read.
func TestMulRefusesShortOperands(t *testing.T) {
	ones := func(rows, cols int) *Matrix {
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = 1
		}
		return m
	}
	for _, c := range []struct {
		name      string
		out, a, b *Matrix
	}{
		{"B a row short", NewMatrix(2, 3), ones(2, 4), &Matrix{Rows: 4, Cols: 3, Data: make([]float64, 9)}},
		{"B wider than the output", NewMatrix(2, 3), ones(2, 4), NewMatrix(4, 4)},
		{"the output a row short", &Matrix{Rows: 2, Cols: 3, Data: make([]float64, 3)}, ones(2, 4), NewMatrix(4, 3)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			mulAB(c.out, c.a, c.b)
		}()
	}
}

func TestTrainerMatchesReferenceBitForBit(t *testing.T) {
	for _, dims := range [][]int{{32, 64, 10}, {16, 32, 4}, {8, 16, 16, 5}, {7, 3}} {
		tr, err := NewTrainer(dims, 2048, 32, 0.005, 11)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewTrainer(dims, 2048, 32, 0.005, 11)
		if err != nil {
			t.Fatal(err)
		}
		var layers []*refLayer
		for _, d := range ref.model.Layers() {
			layers = append(layers, &refLayer{d: d})
		}
		for step := 0; step < 300; step++ {
			got, err := tr.TrainStep()
			if err != nil {
				t.Fatal(err)
			}
			want := refTrainStep(t, ref, layers)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("dims %v step %d: loss %v, reference %v", dims, step, got, want)
			}
		}
		// The dL/dx that layers[0] no longer computes must change nothing
		// else: every parameter and every gradient, GradW of layers[0]
		// included, is the reference's.
		for i, d := range tr.model.Layers() {
			r := layers[i].d
			name := fmt.Sprintf("dims %v layer %d ", dims, i)
			sameBits(t, name+"W", d.W.Data, r.W.Data)
			sameBits(t, name+"B", d.B, r.B)
			sameBits(t, name+"GradW", d.GradW.Data, r.GradW.Data)
			sameBits(t, name+"GradB", d.GradB, r.GradB)
		}
	}
}

func TestTrainStepAllocFree(t *testing.T) {
	tr, err := NewTrainer([]int{32, 64, 10}, 2048, 32, 0.005, 3)
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		if _, err := tr.TrainStep(); err != nil {
			t.Fatal(err)
		}
	}
	step() // warm: layer buffers, optimizer state
	if n := testing.AllocsPerRun(50, step); n != 0 {
		t.Fatalf("warmed TrainStep allocates %v times per step, want 0", n)
	}
}

// A layer's result lives until the same layer's next call: a second Forward
// with another batch size reshapes the buffer it returned before, and both
// results are the reference's.
func TestForwardBufferReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, err := NewMLP([]int{6, 9, 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	var layers []*refLayer
	for _, d := range m.Layers() {
		layers = append(layers, &refLayer{d: d})
	}
	var first *Matrix
	for _, batch := range []int{8, 3, 20, 8} {
		x := randomMatrix(rng, batch, 6, 0.1, -1)
		got, err := m.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		want := layers[1].forward(layers[0].relu(layers[0].forward(x)))
		if got.Rows != batch || got.Cols != 4 {
			t.Fatalf("batch %d: logits %dx%d", batch, got.Rows, got.Cols)
		}
		sameBits(t, fmt.Sprintf("batch %d logits", batch), got.Data, want.Data)
		if first == nil {
			first = got
		} else if got != first {
			t.Fatalf("batch %d: Forward returned a second buffer", batch)
		}
		// Backward at the new shape reads the buffers Forward just resized.
		_, grad, err := SoftmaxCrossEntropy(got, make([]int, batch))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Backward(grad); err != nil {
			t.Fatal(err)
		}
		wantW1 := refMatMul(refTranspose(layers[1].lastIn), grad)
		sameBits(t, fmt.Sprintf("batch %d GradW", batch), m.Layers()[1].GradW.Data, wantW1.Data)
	}
}

// Inputs that used to panic (or answer NaN) at a distance are errors at the
// call that can know.
func TestFrontDoorsReturnErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name string
		call func() error
	}{
		{"Dense.Backward before Forward", func() error {
			_, err := NewDense(3, 2, rng).Backward(NewMatrix(4, 2))
			return err
		}},
		{"SoftmaxCrossEntropy on 0 columns", func() error {
			_, _, err := SoftmaxCrossEntropy(NewMatrix(2, 0), []int{0, 0})
			return err
		}},
		{"SoftmaxCrossEntropy on 0 rows", func() error {
			_, _, err := SoftmaxCrossEntropy(NewMatrix(0, 3), nil)
			return err
		}},
		{"NewTrainer with an empty dataset", func() error {
			_, err := NewTrainer([]int{4, 3}, 0, 8, 0.01, 1)
			return err
		}},
		{"NewTrainer with batch 0", func() error {
			_, err := NewTrainer([]int{4, 3}, 64, 0, 0.01, 1)
			return err
		}},
		{"NewTrainer with a dimension below 1", func() error {
			_, err := NewTrainer([]int{4, 0, 3}, 64, 8, 0.01, 1)
			return err
		}},
	}
	for _, c := range cases {
		if err := c.call(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}

	// A matrix whose Data is not Rows×Cols long is refused before any
	// kernel reads a row where its dimensions put one.
	short := func() *Matrix { return &Matrix{Rows: 2, Cols: 3, Data: make([]float64, 5)} }
	long := func() *Matrix { return &Matrix{Rows: 3, Cols: 2, Data: make([]float64, 7)} }
	negative := func() *Matrix { return &Matrix{Rows: -2, Cols: -3, Data: make([]float64, 6)} }
	// Rows×Cols wraps to 0, the length of an empty Data.
	overflow := func() *Matrix { return &Matrix{Rows: math.MaxInt/2 + 1, Cols: 4} }
	for _, c := range []struct {
		name, want string
		call       func() error
	}{
		{"MatMul with a short A", "nn: 2x3 matrix holds 5 elements", func() error {
			_, err := MatMul(short(), NewMatrix(3, 2))
			return err
		}},
		{"MatMul with a long B", "nn: 3x2 matrix holds 7 elements", func() error {
			_, err := MatMul(NewMatrix(2, 3), long())
			return err
		}},
		{"MatMul with negative dimensions", "nn: -2x-3 matrix holds 6 elements", func() error {
			_, err := MatMul(negative(), NewMatrix(3, 2))
			return err
		}},
		{"MatMul with Rows×Cols past MaxInt", fmt.Sprintf("nn: %dx4 matrix holds 0 elements", math.MaxInt/2+1), func() error {
			_, err := MatMul(overflow(), NewMatrix(4, 2))
			return err
		}},
		{"Forward with a short input", "nn: 2x3 matrix holds 5 elements", func() error {
			_, err := NewDense(3, 2, rng).Forward(short())
			return err
		}},
		{"Forward with short weights", "nn: 2x3 matrix holds 5 elements", func() error {
			d := NewDense(2, 3, rng)
			d.W = short()
			_, err := d.Forward(NewMatrix(4, 2))
			return err
		}},
		{"Backward with a long gradient", "nn: 3x2 matrix holds 7 elements", func() error {
			d := NewDense(4, 2, rng)
			if _, err := d.Forward(NewMatrix(3, 4)); err != nil {
				return err
			}
			_, err := d.Backward(long())
			return err
		}},
		{"Backward after the input was cut short", "nn: 2x3 matrix holds 5 elements", func() error {
			d, x := NewDense(3, 2, rng), NewMatrix(2, 3)
			if _, err := d.Forward(x); err != nil {
				return err
			}
			x.Data = x.Data[:5]
			_, err := d.Backward(NewMatrix(2, 2))
			return err
		}},
	} {
		if err := c.call(); err == nil || err.Error() != c.want {
			t.Errorf("%s: %v, want %q", c.name, err, c.want)
		}
	}

	// Shape mismatches keep the matmul text.
	d := NewDense(3, 2, rng)
	if _, err := d.Forward(NewMatrix(4, 5)); err == nil || err.Error() != "nn: matmul 4x5 @ 3x2" {
		t.Errorf("Forward with 5 columns into a 3-input layer: %v", err)
	}
	if _, err := d.Forward(NewMatrix(4, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Backward(NewMatrix(5, 2)); err == nil || err.Error() != "nn: matmul 3x4 @ 5x2" {
		t.Errorf("Backward with 5 rows after a 4-row Forward: %v", err)
	}
	if _, err := d.Backward(NewMatrix(4, 7)); err == nil || err.Error() != "nn: matmul 4x7 @ 2x3" {
		t.Errorf("Backward with 7 columns out of a 2-output layer: %v", err)
	}
}

func BenchmarkTrainStep(b *testing.B) {
	// The dimensions of sidetask's built-in training tasks.
	tr, err := NewTrainer([]int{32, 64, 10}, 2048, 32, 0.005, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.TrainStep(); err != nil {
			b.Fatal(err)
		}
	}
}
