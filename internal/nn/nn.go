// Package nn is a small, real neural-network training substrate: dense
// layers, ReLU, softmax cross-entropy and Adam, over float64 matrices.
//
// The paper's model-training side tasks (ResNet18/50, VGG19) run real
// PyTorch training; reproducing cuDNN is out of scope here, so the
// side-task layer pairs the *calibrated GPU cost* of those CNNs (see
// internal/model) with *real* gradient-descent steps from this package on a
// proportional MLP. The step-wise structure — load batch, forward, loss,
// backward, optimizer update — is the part FreeRide's iterative interface
// depends on, and it is fully real.
//
// # Buffers
//
// A buffer belongs to whoever produces it and is resized only when the batch
// shape changes, so a warmed Trainer.TrainStep allocates nothing: Dense owns
// its output, its input gradient and a copy of Wᵀ, ReLU its output and its
// gated gradient, Trainer its batch (x, y) and the logits gradient. A matrix
// a layer returns is valid until the same layer's next call of that method,
// and the layer may read it again (ReLU.Backward gates by ReLU's output,
// Dense.Backward reads the input Forward was given), so a caller neither
// keeps it across steps nor writes into it; MLP and Trainer rely on that and
// nothing more.
// MLP.Backward asks layers[0] for parameter gradients only: nobody reads
// dL/dx of the network's input.
//
// # Summation order
//
// Every product is A·B or Aᵀ·B, one in-place kernel that reads Aᵀ where A
// lies; Dense.Backward's dL/dx = G·Wᵀ multiplies by a copy of Wᵀ, which costs
// one batch row's share of the product. Each out[i][j] starts at +0 and
// adds a_ik·b_kj in ascending k, skipping every k whose a_ik == 0 (ReLU
// leaves about half of them zero), one left-associated addition per term;
// folding four k into a pass changes how often the output is loaded and
// stored, not the order of one addition. Tests compare math.Float64bits
// against the naive triple loop (nn_test.go) rather than leave the order to
// taste: the repository's spine is bit-identical determinism — result
// digests, golden sessions — and an exact test holds where a tolerance drifts.
//
// On amd64 the kernel's row pass and Adam's update are SSE2 assembly
// (kernels_amd64.s): each lane of a packed instruction does one element's
// scalar operation, in the same order and with no fused multiply-add, so
// every bit matches the Go loops of kernels_generic.go, which other
// platforms run.
package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set writes the element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// row returns row i.
func (m *Matrix) row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// resize reshapes m, keeping its storage when it is large enough. The
// contents are unspecified afterwards.
func (m *Matrix) resize(rows, cols int) {
	if n := rows * cols; cap(m.Data) < n {
		m.Data = make([]float64, n)
	} else {
		m.Data = m.Data[:n]
	}
	m.Rows, m.Cols = rows, cols
}

// consistent returns an error unless each matrix's Data holds exactly
// Rows×Cols elements: the kernels find a row where the dimensions put it.
func consistent(ms ...*Matrix) error {
	for _, m := range ms {
		if m.Rows < 0 || m.Cols < 0 || m.Cols > 0 && m.Rows > math.MaxInt/m.Cols || len(m.Data) != m.Rows*m.Cols {
			return fmt.Errorf("nn: %dx%d matrix holds %d elements", m.Rows, m.Cols, len(m.Data))
		}
	}
	return nil
}

func shapeErr(ar, ac, br, bc int) error {
	return fmt.Errorf("nn: matmul %dx%d @ %dx%d", ar, ac, br, bc)
}

// MatMul computes a @ b into a fresh matrix.
func MatMul(a, b *Matrix) (*Matrix, error) {
	if err := consistent(a, b); err != nil {
		return nil, err
	}
	if a.Cols != b.Rows {
		return nil, shapeErr(a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := NewMatrix(a.Rows, b.Cols)
	mulAB(out, a, b)
	return out, nil
}

// Transpose returns mᵀ.
func Transpose(m *Matrix) *Matrix {
	out := &Matrix{}
	transpose(out, m)
	return out
}

// transpose writes mᵀ into out, resized.
func transpose(out, m *Matrix) {
	out.resize(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.row(i) {
			out.Data[j*m.Rows+i] = v
		}
	}
}

// gatherSeg is how many k of a row one scan gathers: the (k, a_ik) buffers
// are arrays on the kernel's stack, so longer rows take several scans.
const gatherSeg = 64

// nonzeros is the gather buffer: the k and a_ik of one row segment of op(A)
// with a_ik != 0, in ascending k.
type nonzeros struct {
	k [gatherSeg]int
	v [gatherSeg]float64
}

// gather scans a.Data[p], a.Data[p+dk], … for k in [k0, k1) and returns how
// many were kept. Half the elements behind a ReLU are zero in no order a
// branch predictor learns, so the scan stores every element and advances the
// count by a comparison's result instead of jumping on it.
func (z *nonzeros) gather(a []float64, p, dk, k0, k1 int) int {
	c := 0
	for k := k0; k < k1; k, p = k+1, p+dk {
		v := a[p]
		z.k[c], z.v[c] = k, v
		if v != 0 {
			c++
		}
	}
	return c
}

// mulAB computes out = A·B; out is already a.Rows × b.Cols.
func mulAB(out, a, b *Matrix) { mul(out, a, b, a.Rows, a.Cols, a.Cols, 1) }

// mulAtB computes out = Aᵀ·B; out is already a.Cols × b.Cols.
func mulAtB(out, a, b *Matrix) { mul(out, a, b, a.Cols, a.Rows, 1, a.Cols) }

// mul is the kernel behind A·B and Aᵀ·B: row i of op(A) has inner elements,
// starts at a.Data[i*di] and steps by dk. mulRow adds each gathered segment
// into the output row. It reads B without bounds checks, so mul first checks
// that every row of B a gathered k names lies in b.Data.
func mul(out, a, b *Matrix, rows, inner, di, dk int) {
	if cols := out.Cols; b.Cols != cols || cols > 0 && (len(b.Data)/cols < inner || len(out.Data)/cols < rows) {
		panic(fmt.Sprintf("nn: %dx%d product of a %dx%d B into a %dx%d output",
			rows, inner, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	var z nonzeros
	for i := 0; i < rows; i++ {
		o := out.row(i)
		clear(o)
		for k0 := 0; k0 < inner; k0 += gatherSeg {
			c := z.gather(a.Data, i*di+k0*dk, dk, k0, min(k0+gatherSeg, inner))
			mulRow(o, b.Data, z.k[:c], z.v[:c])
		}
	}
}

// Dense is a fully connected layer with bias.
type Dense struct {
	W *Matrix // in x out
	B []float64

	GradW *Matrix
	GradB []float64

	// lastIn is the caller's matrix, read again by Backward.
	lastIn      *Matrix
	out, gradIn Matrix
	// wT is Wᵀ, copied by every Backward: the kernel reads B by rows.
	wT Matrix
}

// NewDense initializes with He-uniform weights from the seeded rng.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	d := &Dense{
		W:     NewMatrix(in, out),
		B:     make([]float64, out),
		GradW: NewMatrix(in, out),
		GradB: make([]float64, out),
	}
	limit := math.Sqrt(6.0 / float64(in))
	for i := range d.W.Data {
		d.W.Data[i] = (rng.Float64()*2 - 1) * limit
	}
	return d
}

// Forward computes x@W + b. The result is valid until the next Forward.
func (d *Dense) Forward(x *Matrix) (*Matrix, error) {
	if err := consistent(x, d.W); err != nil {
		return nil, err
	}
	if x.Cols != d.W.Rows {
		return nil, shapeErr(x.Rows, x.Cols, d.W.Rows, d.W.Cols)
	}
	d.out.resize(x.Rows, d.W.Cols)
	mulAB(&d.out, x, d.W)
	for i := 0; i < x.Rows; i++ {
		o := d.out.row(i)
		for j, bias := range d.B {
			o[j] += bias
		}
	}
	d.lastIn = x
	return &d.out, nil
}

// Backward stores the parameter gradients in GradW and GradB and returns
// dL/dx, valid until the next Backward.
func (d *Dense) Backward(gradOut *Matrix) (*Matrix, error) {
	if err := d.backwardParams(gradOut); err != nil {
		return nil, err
	}
	transpose(&d.wT, d.W)
	d.gradIn.resize(gradOut.Rows, d.W.Rows)
	mulAB(&d.gradIn, gradOut, &d.wT)
	return &d.gradIn, nil
}

// backwardParams is Backward without dL/dx.
func (d *Dense) backwardParams(gradOut *Matrix) error {
	x := d.lastIn
	if x == nil {
		return errors.New("nn: Dense.Backward before Forward")
	}
	if err := consistent(gradOut, x, d.W, d.GradW); err != nil {
		return err
	}
	if x.Rows != gradOut.Rows {
		return shapeErr(x.Cols, x.Rows, gradOut.Rows, gradOut.Cols)
	}
	if gradOut.Cols != d.W.Cols {
		return shapeErr(gradOut.Rows, gradOut.Cols, d.W.Cols, d.W.Rows)
	}
	mulAtB(d.GradW, x, gradOut)
	clear(d.GradB)
	for i := 0; i < gradOut.Rows; i++ {
		for j, g := range gradOut.row(i) {
			d.GradB[j] += g
		}
	}
	return nil
}

// ReLU is the rectified-linear activation.
type ReLU struct{ out, gradIn Matrix }

// posInf is the bit pattern of +Inf: as integers, the bit patterns of the
// floats above zero are exactly 1 … posInf (negatives carry the sign bit,
// NaNs lie above posInf).
const posInf = 0x7FF0000000000000

// Forward clamps everything that is not above zero to +0. The result is
// valid until the next Forward, and Backward gates by it. Which elements
// pass is as unpredictable here as in gather, so both directions select on
// bit patterns rather than branch.
func (r *ReLU) Forward(x *Matrix) *Matrix {
	r.out.resize(x.Rows, x.Cols)
	out := r.out.Data
	for i, v := range x.Data {
		bits, keep := math.Float64bits(v), uint64(0)
		if bits-1 < posInf { // v > 0
			keep = bits
		}
		out[i] = math.Float64frombits(keep)
	}
	return &r.out
}

// Backward passes the gradient where Forward's input was above zero, and +0
// elsewhere. The result is valid until the next Backward.
func (r *ReLU) Backward(gradOut *Matrix) *Matrix {
	r.gradIn.resize(gradOut.Rows, gradOut.Cols)
	out, gradIn := r.out.Data[:len(gradOut.Data)], r.gradIn.Data[:len(gradOut.Data)]
	for i, v := range gradOut.Data {
		bits, keep := math.Float64bits(v), uint64(0)
		if math.Float64bits(out[i]) != 0 { // Forward left +0 or a float above zero
			keep = bits
		}
		gradIn[i] = math.Float64frombits(keep)
	}
	return &r.gradIn
}

// SoftmaxCrossEntropy computes the mean loss and the logits gradient for
// integer class labels into a fresh matrix.
func SoftmaxCrossEntropy(logits *Matrix, labels []int) (loss float64, grad *Matrix, err error) {
	grad = &Matrix{}
	if loss, err = softmaxCrossEntropy(grad, logits, labels); err != nil {
		return 0, nil, err
	}
	return loss, grad, nil
}

// softmaxCrossEntropy writes the logits gradient into grad, resized to the
// logits' shape.
func softmaxCrossEntropy(grad, logits *Matrix, labels []int) (loss float64, err error) {
	if len(labels) != logits.Rows {
		return 0, fmt.Errorf("nn: %d labels for %d rows", len(labels), logits.Rows)
	}
	if logits.Rows < 1 || logits.Cols < 1 {
		return 0, fmt.Errorf("nn: softmax over %dx%d logits", logits.Rows, logits.Cols)
	}
	grad.resize(logits.Rows, logits.Cols)
	n := float64(logits.Rows)
	for i := 0; i < logits.Rows; i++ {
		row := logits.row(i)
		maxV := row[0]
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		probs := grad.row(i)
		for j, v := range row {
			e := math.Exp(v - maxV)
			probs[j] = e
			sum += e
		}
		label := labels[i]
		if label < 0 || label >= logits.Cols {
			return 0, fmt.Errorf("nn: label %d out of range [0,%d)", label, logits.Cols)
		}
		for j := range probs {
			probs[j] /= sum
		}
		loss += -math.Log(math.Max(probs[label], 1e-12))
		probs[label] -= 1
		for j := range probs {
			probs[j] /= n
		}
	}
	return loss / n, nil
}
