// Package pipeline implements the pipeline-parallel training engine — the
// DeepSpeed substitute (paper §6.1.3). Each stage runs as a simulated
// process bound to one GPU, executing its forward/backward/optimizer ops in
// schedule order and blocking on inter-stage dependencies. Bubbles are not
// scripted anywhere: they emerge as device idle time exactly as in the real
// system, from the dependency structure of the schedule (§2.1).
package pipeline

import (
	"fmt"

	"freeride/internal/model"
)

// ScheduleKind selects the pipeline schedule. It aliases model.Schedule so
// the cost model (closed-form bubble ratios, per-stage memory) can dispatch
// on the same kind without importing this package.
type ScheduleKind = model.Schedule

// Supported schedules (see model.Schedule for semantics).
const (
	Schedule1F1B        = model.Schedule1F1B
	ScheduleGPipe       = model.ScheduleGPipe
	ScheduleInterleaved = model.ScheduleInterleaved
	ScheduleZeroBubble  = model.ScheduleZeroBubble
)

// OpKind is the type of one pipeline operation.
type OpKind int

// Operation kinds. OpBackward is the fused backward of the classic
// schedules; zero-bubble splits it into OpBackwardInput (activation
// gradients, on the critical path — it releases the downstream stage) and
// OpBackwardWeight (weight gradients, dependency-free filler).
const (
	OpForward OpKind = iota + 1
	OpBackward
	OpOptimize
	OpBackwardInput
	OpBackwardWeight
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpForward:
		return "FP"
	case OpBackward:
		return "BP"
	case OpOptimize:
		return "OPT"
	case OpBackwardInput:
		return "B"
	case OpBackwardWeight:
		return "W"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is one scheduled operation at a stage.
type Op struct {
	Kind OpKind
	// MB is the micro-batch index (unused for OpOptimize).
	MB int
}

// Dep is the cross-chunk dependency of one op: before executing, the op
// waits for completion of (On, MB) at chunk Chunk. Chunk < 0 means no
// cross-chunk wait (the op only follows its list predecessor). On is
// OpForward (wait for the upstream forward) or OpBackward (wait for the
// downstream activation gradient — OpBackwardInput completions stamp the
// same scoreboard slot). At most one chunk may wait on any (On, Chunk, MB).
type Dep struct {
	On    OpKind
	Chunk int
	MB    int
}

// noDep marks ops without a cross-chunk wait.
var noDep = Dep{Chunk: -1}

// Plan is a fully generated schedule: one op list plus parallel dependency
// edges per virtual chunk. The Runner replays it verbatim — chunk v's ops
// run in list order, each op first waiting until its Dep's scoreboard slot
// carries the current cycle's stamp.
type Plan struct {
	Kind            ScheduleKind
	Stages          int
	MicroBatches    int
	VirtualPerStage int
	// Chunks[v] is the ordered op list of virtual chunk v (v in
	// [0, Stages·VirtualPerStage)); chunk v executes on device v mod Stages.
	Chunks [][]Op
	// Deps[v][i] is the cross-chunk wait of Chunks[v][i] (noDep if none).
	Deps [][]Dep
}

// NumVirtual is the total chunk count.
func (p *Plan) NumVirtual() int { return p.Stages * p.VirtualPerStage }

// BuildPlan generates the schedule for an S-stage pipeline with M
// micro-batches and V virtual chunks per stage. This is the generator
// abstraction of the schedule zoo: every kind emits per-chunk op lists plus
// dependency edges, and the engine executes any plan the same way.
//
// Per-stage op lists are pinned by testdata/golden.json. Zero-bubble
// requires V == 1 and splits backwards into B/W.
func BuildPlan(kind ScheduleKind, stages, microBatches, virtualPerStage int) (*Plan, error) {
	if stages < 1 {
		return nil, fmt.Errorf("pipeline: stages %d < 1", stages)
	}
	if microBatches < 1 {
		return nil, fmt.Errorf("pipeline: micro-batches %d < 1", microBatches)
	}
	if virtualPerStage < 1 {
		virtualPerStage = 1
	}
	p := &Plan{
		Kind:            kind,
		Stages:          stages,
		MicroBatches:    microBatches,
		VirtualPerStage: virtualPerStage,
	}
	nv := p.NumVirtual()
	switch kind {
	case Schedule1F1B, ScheduleInterleaved:
		// Interleaved IS 1F1B over the deeper virtual pipeline; the kinds
		// differ only in how many chunks the config assigns per device.
		for v := 0; v < nv; v++ {
			p.Chunks = append(p.Chunks, ops1F1B(v, nv, microBatches))
		}
	case ScheduleGPipe:
		for v := 0; v < nv; v++ {
			p.Chunks = append(p.Chunks, opsGPipe(microBatches))
		}
	case ScheduleZeroBubble:
		if virtualPerStage != 1 {
			return nil, fmt.Errorf("pipeline: zero-bubble schedule does not compose with virtual stages (V=%d)", virtualPerStage)
		}
		chunks, err := opsZeroBubble(stages, microBatches)
		if err != nil {
			return nil, err
		}
		p.Chunks = chunks
	default:
		return nil, fmt.Errorf("pipeline: unknown schedule %v", kind)
	}
	p.Deps = make([][]Dep, nv)
	for v := range p.Chunks {
		p.Deps[v] = depsFor(p.Chunks[v], v, nv)
	}
	return p, nil
}

// depsFor derives the cross-chunk edges of one chunk's op list: a forward at
// chunk v waits for the upstream forward of the same micro-batch, an
// activation-gradient backward (fused or split) waits for the downstream
// one. W and optimizer ops only follow their list predecessors.
func depsFor(ops []Op, v, nv int) []Dep {
	deps := make([]Dep, len(ops))
	for i, op := range ops {
		deps[i] = noDep
		switch op.Kind {
		case OpForward:
			if v > 0 {
				deps[i] = Dep{On: OpForward, Chunk: v - 1, MB: op.MB}
			}
		case OpBackward, OpBackwardInput:
			if v < nv-1 {
				deps[i] = Dep{On: OpBackward, Chunk: v + 1, MB: op.MB}
			}
		}
	}
	return deps
}

// ops1F1B is the one-forward-one-backward emitter for stage v of nv:
// warmup w = min(M, nv-v) forwards, then alternating BP/FP while forwards
// remain, then the remaining backwards, then the optimizer.
func ops1F1B(v, nv, microBatches int) []Op {
	ops := make([]Op, 0, 2*microBatches+1)
	warmup := nv - v
	if warmup > microBatches {
		warmup = microBatches
	}
	for m := 0; m < warmup; m++ {
		ops = append(ops, Op{Kind: OpForward, MB: m})
	}
	nextFP := warmup
	nextBP := 0
	for nextFP < microBatches {
		ops = append(ops, Op{Kind: OpBackward, MB: nextBP})
		nextBP++
		ops = append(ops, Op{Kind: OpForward, MB: nextFP})
		nextFP++
	}
	for nextBP < microBatches {
		ops = append(ops, Op{Kind: OpBackward, MB: nextBP})
		nextBP++
	}
	return append(ops, Op{Kind: OpOptimize})
}

// opsGPipe emits all M forwards, all M backwards, optimizer.
func opsGPipe(microBatches int) []Op {
	ops := make([]Op, 0, 2*microBatches+1)
	for m := 0; m < microBatches; m++ {
		ops = append(ops, Op{Kind: OpForward, MB: m})
	}
	for m := 0; m < microBatches; m++ {
		ops = append(ops, Op{Kind: OpBackward, MB: m})
	}
	return append(ops, Op{Kind: OpOptimize})
}

// opsZeroBubble emits the B/W-split schedule via a synchronous unit-slot
// greedy: each slot, every stage picks its highest-priority available op
// (B > F > W — B releases the downstream stage, F feeds the upstream one, W
// is pure filler), with availability judged on the previous slot's
// completions:
//
//	B: bDone < fDone and downstream B ahead (bDone[s+1] > bDone[s]).
//	F: fDone < M and upstream F ahead (fDone[s-1] > fDone[s]).
//	W: wDone < bDone.
//
// Activations are deliberately NOT capped: bounding in-flight count below M
// forces a W into a slot the backward cascade needs and the whole drain
// slips behind it (measurably, (S-2)·FP of extra fill at S=8 under a
// min(M, S-s+1) cap). Uncapped, every stage may hold up to M activations —
// GPipe's footprint, charged honestly by model.StageMemUsedSched — and the
// fill lands on ((S-1) + max(0, S-M))·FP: the warmup cascade, plus a
// GPipe-like drain penalty when there are too few micro-batches to cover
// the first backward's round trip. This is the zero-bubble memory-for-time
// trade (ZB-H2 flavour) rather than the memory-neutral ZB-H1.
//
// With the calibrated models' BP = 2·FP, the split B and W ops each cost
// exactly FP, so the slotted order is also the real-time order. The emitted
// lists stay valid for any durations — the engine replays them under real
// dependency waits, and a global topological order exists by construction
// (the slot order itself).
func opsZeroBubble(stages, microBatches int) ([][]Op, error) {
	S, M := stages, microBatches
	ops := make([][]Op, S)
	for s := range ops {
		ops[s] = make([]Op, 0, 3*M+1)
	}
	fDone := make([]int, S)
	bDone := make([]int, S)
	wDone := make([]int, S)
	done := func() bool {
		for s := 0; s < S; s++ {
			if wDone[s] < M {
				return false
			}
		}
		return true
	}
	maxSlots := 2*(S+1)*(M+S) + 64 // generous: the greedy finishes in ~2M+3S slots
	type pick struct {
		kind OpKind
		mb   int
	}
	picks := make([]pick, S)
	for slot := 0; !done(); slot++ {
		if slot > maxSlots {
			return nil, fmt.Errorf("pipeline: zero-bubble generator did not converge (S=%d M=%d)", S, M)
		}
		for s := 0; s < S; s++ {
			picks[s] = pick{}
			switch {
			case bDone[s] < fDone[s] && (s == S-1 || bDone[s+1] > bDone[s]):
				picks[s] = pick{OpBackwardInput, bDone[s]}
			case fDone[s] < M && (s == 0 || fDone[s-1] > fDone[s]):
				picks[s] = pick{OpForward, fDone[s]}
			case wDone[s] < bDone[s]:
				picks[s] = pick{OpBackwardWeight, wDone[s]}
			}
		}
		for s := 0; s < S; s++ {
			switch picks[s].kind {
			case OpForward:
				fDone[s]++
			case OpBackwardInput:
				bDone[s]++
			case OpBackwardWeight:
				wDone[s]++
			default:
				continue
			}
			ops[s] = append(ops[s], Op{Kind: picks[s].kind, MB: picks[s].mb})
		}
	}
	for s := 0; s < S; s++ {
		// The optimizer barrier moves: it still closes the stage's epoch,
		// but now it runs after the deferred W tail, not after the last
		// fused backward.
		ops[s] = append(ops[s], Op{Kind: OpOptimize})
	}
	return ops, nil
}
