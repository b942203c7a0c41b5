package pipeline

import (
	"testing"
)

func TestScheduleGeneration1F1B(t *testing.T) {
	// Stage 3 of 4 (last): warmup 1 → FP0 BP0 FP1 BP1 ... OPT.
	plan, err := BuildPlan(Schedule1F1B, 4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	ops := plan.Chunks[3]
	want := []Op{
		{OpForward, 0}, {OpBackward, 0}, {OpForward, 1}, {OpBackward, 1},
		{OpForward, 2}, {OpBackward, 2}, {OpForward, 3}, {OpBackward, 3},
		{OpOptimize, 0},
	}
	if len(ops) != len(want) {
		t.Fatalf("ops = %v", ops)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("ops[%d] = %v, want %v (full %v)", i, ops[i], want[i], ops)
		}
	}
	// Stage 0 of 4: all 4 warmup forwards first.
	ops0 := plan.Chunks[0]
	for i := 0; i < 4; i++ {
		if ops0[i].Kind != OpForward {
			t.Fatalf("stage0 op %d = %v, want forward", i, ops0[i])
		}
	}
}

// backwardOf reports whether k computes the activation gradient of a
// micro-batch (fused or split backward).
func backwardOf(k OpKind) bool { return k == OpBackward || k == OpBackwardInput }

// checkChunk validates one chunk's op list in isolation: exact op
// counts, F(m) before its backward, W(m) after its B(m), micro-batch order
// ascending per kind, optimizer exactly once and last.
func checkChunk(t *testing.T, desc string, ops []Op, mbs int, zb bool) {
	t.Helper()
	fpAt := map[int]int{}
	bpAt := map[int]int{}
	wAt := map[int]int{}
	lastFP, lastBP, lastW := -1, -1, -1
	optAt := -1
	for i, op := range ops {
		switch {
		case op.Kind == OpForward:
			if _, dup := fpAt[op.MB]; dup || op.MB <= lastFP {
				t.Fatalf("%s: FP order/dup at %d: %v", desc, i, ops)
			}
			fpAt[op.MB] = i
			lastFP = op.MB
		case backwardOf(op.Kind):
			if zb != (op.Kind == OpBackwardInput) {
				t.Fatalf("%s: wrong backward flavour %v", desc, op.Kind)
			}
			if _, dup := bpAt[op.MB]; dup || op.MB <= lastBP {
				t.Fatalf("%s: B order/dup at %d: %v", desc, i, ops)
			}
			bpAt[op.MB] = i
			lastBP = op.MB
		case op.Kind == OpBackwardWeight:
			if !zb {
				t.Fatalf("%s: W op in non-zero-bubble chunk", desc)
			}
			if _, dup := wAt[op.MB]; dup || op.MB <= lastW {
				t.Fatalf("%s: W order/dup at %d: %v", desc, i, ops)
			}
			wAt[op.MB] = i
			lastW = op.MB
		case op.Kind == OpOptimize:
			if optAt >= 0 {
				t.Fatalf("%s: duplicate optimizer", desc)
			}
			optAt = i
		default:
			t.Fatalf("%s: unexpected op %v", desc, op)
		}
	}
	if len(fpAt) != mbs || len(bpAt) != mbs {
		t.Fatalf("%s: %d FP / %d B, want %d each", desc, len(fpAt), len(bpAt), mbs)
	}
	if zb && len(wAt) != mbs {
		t.Fatalf("%s: %d W, want %d", desc, len(wAt), mbs)
	}
	if optAt != len(ops)-1 {
		t.Fatalf("%s: optimizer at %d, want last (%d)", desc, optAt, len(ops)-1)
	}
	for m := 0; m < mbs; m++ {
		if fpAt[m] >= bpAt[m] {
			t.Fatalf("%s: B%d at %d not after FP%d at %d", desc, m, bpAt[m], m, fpAt[m])
		}
		if zb && wAt[m] <= bpAt[m] {
			t.Fatalf("%s: W%d at %d not after B%d at %d", desc, m, wAt[m], m, bpAt[m])
		}
	}
}

// replayPlan statically executes a plan: each chunk advances through its op
// list as soon as its cross-chunk dependency is satisfied. Any wedge is a
// dependency-unsound schedule — the engine would deadlock on it.
func replayPlan(t *testing.T, desc string, p *Plan) {
	t.Helper()
	nv := p.NumVirtual()
	next := make([]int, nv)
	type ev struct{ chunk, mb int }
	fpDone := map[ev]bool{}
	bpDone := map[ev]bool{}
	for {
		progress, done := false, true
		for v := 0; v < nv; v++ {
			for next[v] < len(p.Chunks[v]) {
				dep := p.Deps[v][next[v]]
				if dep.Chunk >= 0 {
					if dep.Chunk >= nv {
						t.Fatalf("%s: chunk %d op %d dep on bad chunk %d", desc, v, next[v], dep.Chunk)
					}
					satisfied := false
					switch dep.On {
					case OpForward:
						satisfied = fpDone[ev{dep.Chunk, dep.MB}]
					case OpBackward:
						satisfied = bpDone[ev{dep.Chunk, dep.MB}]
					default:
						t.Fatalf("%s: chunk %d op %d waits on %v", desc, v, next[v], dep.On)
					}
					if !satisfied {
						break
					}
				}
				op := p.Chunks[v][next[v]]
				switch {
				case op.Kind == OpForward:
					fpDone[ev{v, op.MB}] = true
				case backwardOf(op.Kind):
					bpDone[ev{v, op.MB}] = true
				}
				next[v]++
				progress = true
			}
			if next[v] < len(p.Chunks[v]) {
				done = false
			}
		}
		if done {
			return
		}
		if !progress {
			t.Fatalf("%s: plan deadlocked at %v", desc, next)
		}
	}
}

// The schedule-zoo property grid: every schedule × stages 2..8 ×
// micro-batches 1..16 × virtual 1..4 generates op lists that are
// dependency-sound (static replay cannot wedge), complete (exact op
// counts), and correctly ordered — including the M < S warmup-truncation
// corner.
func TestSchedulePropertyGrid(t *testing.T) {
	for _, kind := range []ScheduleKind{Schedule1F1B, ScheduleGPipe, ScheduleInterleaved, ScheduleZeroBubble} {
		for stages := 2; stages <= 8; stages++ {
			for mbs := 1; mbs <= 16; mbs++ {
				for virtual := 1; virtual <= 4; virtual++ {
					if kind == ScheduleZeroBubble && virtual > 1 {
						continue
					}
					desc := kind.String()
					plan, err := BuildPlan(kind, stages, mbs, virtual)
					if err != nil {
						t.Fatalf("BuildPlan(%s,S=%d,M=%d,V=%d): %v", desc, stages, mbs, virtual, err)
					}
					if got := len(plan.Chunks); got != stages*virtual {
						t.Fatalf("%s S=%d M=%d V=%d: %d chunks", desc, stages, mbs, virtual, got)
					}
					for v, ops := range plan.Chunks {
						checkChunk(t,
							desc+" chunk", ops, mbs, kind == ScheduleZeroBubble)
						if len(plan.Deps[v]) != len(ops) {
							t.Fatalf("%s chunk %d: %d deps for %d ops", desc, v, len(plan.Deps[v]), len(ops))
						}
					}
					replayPlan(t, desc, plan)
				}
			}
		}
	}
}

func TestScheduleRejectsBadArgs(t *testing.T) {
	if _, err := BuildPlan(Schedule1F1B, 4, 0, 1); err == nil {
		t.Fatal("zero micro-batches accepted")
	}
	if _, err := BuildPlan(Schedule1F1B, 0, 4, 1); err == nil {
		t.Fatal("zero stages accepted")
	}
	if _, err := BuildPlan(ScheduleKind(99), 4, 4, 1); err == nil {
		t.Fatal("unknown schedule accepted")
	}
	if _, err := BuildPlan(ScheduleZeroBubble, 4, 4, 2); err == nil {
		t.Fatal("zero-bubble with virtual stages accepted")
	}
}
