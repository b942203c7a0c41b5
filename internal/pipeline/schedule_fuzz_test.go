package pipeline

import (
	"fmt"
	"testing"
)

// planShape decodes a FuzzBuildPlan input: kind, S ≤ 64, M ≤ 128, V ≤ 4.
func planShape(kind, s, m, v byte) (ScheduleKind, int, int, int) {
	kinds := []ScheduleKind{Schedule1F1B, ScheduleGPipe, ScheduleInterleaved, ScheduleZeroBubble}
	return kinds[int(kind)%len(kinds)], 1 + int(s)%64, 1 + int(m)%128, 1 + int(v)%4
}

// checkPlan replays plan statically under the Runner's scoreboard rules —
// chunk v's ops in list order, an op with a dependency only once its
// producer's slot is stamped, forward completions on one board and
// activation-gradient completions (fused or split backward) on the other —
// and reports the first broken invariant: a dependency naming an op its
// producer chunk never emits, a slot two chunks wait on (so that under some
// timing both park there), or an op the replay never retires.
func checkPlan(plan *Plan) error {
	nv := plan.NumVirtual()
	if len(plan.Chunks) != nv || len(plan.Deps) != nv {
		return fmt.Errorf("%d chunks and %d dependency lists for %d virtual chunks", len(plan.Chunks), len(plan.Deps), nv)
	}
	type slotKey struct {
		backward  bool
		chunk, mb int
	}
	stamps := func(op Op) (slotKey, bool) {
		switch op.Kind {
		case OpForward:
			return slotKey{false, 0, op.MB}, true
		case OpBackward, OpBackwardInput:
			return slotKey{true, 0, op.MB}, true
		}
		return slotKey{}, false
	}
	emitted := make(map[slotKey]bool)
	for v, ops := range plan.Chunks {
		if len(plan.Deps[v]) != len(ops) {
			return fmt.Errorf("chunk %d: %d ops, %d dependencies", v, len(ops), len(plan.Deps[v]))
		}
		for _, op := range ops {
			if k, ok := stamps(op); ok {
				k.chunk = v
				emitted[k] = true
			}
		}
	}
	// A slot one chunk waits on may be stamped late under some timing, so a
	// second chunk naming it could park beside the first: each slot has at
	// most one consumer chunk.
	consumer := make(map[slotKey]int)
	for v, deps := range plan.Deps {
		for i, d := range deps {
			if d.Chunk < 0 {
				continue
			}
			k := slotKey{d.On != OpForward, d.Chunk, d.MB}
			if d.Chunk >= nv || !emitted[k] {
				return fmt.Errorf("chunk %d op %d (%v) waits on %v of micro-batch %d at chunk %d, which that chunk never emits",
					v, i, plan.Chunks[v][i], d.On, d.MB, d.Chunk)
			}
			if w, ok := consumer[k]; ok && w != v {
				return fmt.Errorf("chunks %d and %d can park on one slot (%v of micro-batch %d at chunk %d)", w, v, d.On, d.MB, d.Chunk)
			}
			consumer[k] = v
		}
	}
	// Replay: each chunk runs until it blocks on an unstamped slot, parking
	// there; a stamp wakes the slot's parked chunk.
	done := make(map[slotKey]bool)
	parked := make(map[slotKey]int)
	next := make([]int, nv)
	ready := make([]int, 0, nv)
	for v := nv - 1; v >= 0; v-- {
		ready = append(ready, v)
	}
	for len(ready) > 0 {
		v := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		for ops := plan.Chunks[v]; next[v] < len(ops); next[v]++ {
			if d := plan.Deps[v][next[v]]; d.Chunk >= 0 {
				k := slotKey{d.On != OpForward, d.Chunk, d.MB}
				if !done[k] {
					parked[k] = v
					break
				}
			}
			if k, ok := stamps(ops[next[v]]); ok {
				k.chunk = v
				done[k] = true
				if w, ok := parked[k]; ok {
					delete(parked, k)
					ready = append(ready, w)
				}
			}
		}
	}
	for v, ops := range plan.Chunks {
		if next[v] < len(ops) {
			return fmt.Errorf("chunk %d stalls at op %d of %d (%v)", v, next[v], len(ops), ops[next[v]])
		}
	}
	return nil
}

// TestCheckPlanCatchesBrokenPlans holds FuzzBuildPlan's checker to its three
// invariants on hand-broken 1F1B plans.
func TestCheckPlanCatchesBrokenPlans(t *testing.T) {
	for _, c := range []struct {
		name    string
		corrupt func(p *Plan)
	}{
		{"phantom producer op", func(p *Plan) { p.Deps[1][0].MB = p.MicroBatches }},
		{"two waiters on one slot", func(p *Plan) { p.Deps[2][0] = p.Deps[1][0] }},
		{"cyclic wait", func(p *Plan) {
			ops := p.Chunks[0]
			ops[0], ops[len(ops)-2] = ops[len(ops)-2], ops[0]
			p.Deps[0] = depsFor(ops, 0, p.NumVirtual())
		}},
	} {
		plan, err := BuildPlan(Schedule1F1B, 4, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkPlan(plan); err != nil {
			t.Fatalf("intact plan: %v", err)
		}
		c.corrupt(plan)
		if err := checkPlan(plan); err == nil {
			t.Errorf("%s: the checker passed a broken plan", c.name)
		}
	}
}

// FuzzBuildPlan holds every plan BuildPlan returns to the Runner's
// contract: kind × S ≤ 64 × M ≤ 128 × V ≤ 4 either errors or yields a plan
// whose static replay retires every op of every chunk, with no slot ever
// holding two parked chunks and every dependency naming an op its producer
// emits, and whose packed op tables agree with it record by record
// (checkSteps). Seeded with the golden shapes.
func FuzzBuildPlan(f *testing.F) {
	for kind := byte(0); kind < 4; kind++ {
		for _, sm := range [][2]byte{{4, 4}, {8, 16}, {16, 32}} {
			v := byte(0)
			if kind == 2 {
				v = 1 // interleaved runs V=2 by default
			}
			f.Add(kind, sm[0]-1, sm[1]-1, v)
		}
	}
	f.Fuzz(func(t *testing.T, kind, s, m, v byte) {
		k, stages, mbs, virtual := planShape(kind, s, m, v)
		plan, err := BuildPlan(k, stages, mbs, virtual)
		if err != nil {
			return
		}
		if err := checkPlan(plan); err != nil {
			t.Fatalf("%v S=%d M=%d V=%d: %v", k, stages, mbs, virtual, err)
		}
		if err := checkSteps(plan); err != nil {
			t.Fatalf("%v S=%d M=%d V=%d: op table: %v", k, stages, mbs, virtual, err)
		}
	})
}
