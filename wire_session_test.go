package freeride

import (
	"os"
	"reflect"
	"strconv"
	"testing"
	"time"

	"freeride/internal/bubble"
	"freeride/internal/freerpc"
	"freeride/internal/model"
	"freeride/internal/sidetask"
	"freeride/internal/simfault"
	"freeride/internal/simtime"
)

// wireLinks makes both ends of every link in memory, like memLinks, but each
// end is a Peer on a freerpc.Wire over a FramePipe: every message crosses as
// the JSON frame a live daemon would write, on the virtual clock.
type wireLinks struct{ s *Session }

func (l wireLinks) Link(_ int, mgr, far *freerpc.Mux) (*freerpc.Peer, *freerpc.Peer, error) {
	a, b := freerpc.FramePipe(l.s.eng, l.s.cfg.RPCLatency)
	return freerpc.NewPeer(l.s.eng, freerpc.Wire(a), mgr), freerpc.NewPeer(l.s.eng, freerpc.Wire(b), far), nil
}

// chaosSeed is the fault-schedule seed CI's chaos matrix sets through
// FREERIDE_CHAOS_SEED (default 1).
func chaosSeed(t *testing.T) int64 {
	s := os.Getenv("FREERIDE_CHAOS_SEED")
	if s == "" {
		return 1
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("bad FREERIDE_CHAOS_SEED %q: %v", s, err)
	}
	return v
}

// TestWireSessionMatchesTyped runs each cell twice, once on memLinks, where
// typed DTOs cross as they are, and once on wireLinks, where every params
// and result value is marshalled and parsed by the codec of the live
// daemons: the two Results, StepEvents included, must be equal, and so must
// the number of engine events. The fault cells draw their schedules from the
// chaos seed, so CI's chaos matrix runs them on each of its seeds.
func TestWireSessionMatchesTyped(t *testing.T) {
	seed := chaosSeed(t)
	base := DefaultConfig()
	base.Epochs = 4
	base.WorkScale = sidetask.WorkNone
	horizon := time.Duration(base.Epochs) * base.LLM.EpochSpan(base.Stages, base.MicroBatches)

	everywhere := func(p model.TaskProfile) func(*Session) error {
		return func(s *Session) error {
			_, err := s.SubmitEverywhere(p)
			return err
		}
	}
	mixed := func(s *Session) error {
		for stage, p := range []model.TaskProfile{model.PageRank, model.ResNet18, model.Image, model.VGG19} {
			if err := s.Submit(p, stage); err != nil {
				return err
			}
		}
		return nil
	}
	type cell struct {
		name   string
		cfg    Config
		submit func(*Session) error
	}
	var cells []cell
	for _, method := range []Method{MethodIterative, MethodImperative} {
		for _, p := range []model.TaskProfile{model.ResNet18, model.PageRank, model.GraphSGD} {
			cfg := base
			cfg.Method = method
			cells = append(cells, cell{method.String() + "/" + p.Name, cfg, everywhere(p)})
		}
	}
	cells = append(cells, cell{"mixed", base, mixed})
	faulty := func(name string, n int, kinds ...simfault.Kind) cell {
		cfg := base
		cfg.Faults = simfault.Generate(seed, horizon, n, kinds, cfg.Stages)
		return cell{name, cfg, everywhere(model.ResNet18)}
	}
	cells = append(cells,
		faulty("crash", 1, simfault.KindCrashWorker),
		faulty("drop-delay-sever", 6, simfault.KindDropRPC, simfault.KindDelayRPC, simfault.KindSeverLink),
		faulty("wedge-fail-kernel", 6, simfault.KindWedgeTask, simfault.KindFailKernel))
	drift := base
	drift.Drift = &bubble.DriftSchedule{Seed: seed, Events: []bubble.DriftEvent{
		{At: horizon / 3, Kind: bubble.DriftFreeze, Stage: 2, Magnitude: 1},
	}}
	drift.Replan = &bubble.DetectorConfig{}
	cells = append(cells, cell{"drift-replan", drift, everywhere(model.GraphSGD)})
	run := func(c cell, wire bool) (*Result, uint64) {
		t.Helper()
		var s *Session
		var err error
		if wire {
			s = &Session{Eng: simtime.NewVirtual()}
			s, err = s.assemble(c.cfg, s.Eng, wireLinks{s}, true, true)
		} else {
			s, err = NewSession(c.cfg)
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := c.submit(s); err != nil {
			t.Fatalf("%s: submit: %v", c.name, err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		return res, s.Eng.Dispatched()
	}
	serving := base
	serving.Serving = &ServingConfig{Guard: 1}
	servingCell := cell{"serving-guard1", serving, everywhere(model.ResNet18)}
	ref, _ := run(servingCell, false) // the horizon of the serving-crash schedule
	serving.Faults = simfault.Generate(seed, ref.TrainTime, 1, []simfault.Kind{simfault.KindCrashWorker}, serving.Stages)
	cells = append(cells, servingCell, cell{"serving-crash", serving, everywhere(model.ResNet18)})

	for _, c := range cells {
		typed, typedEvents := run(c, false)
		wired, wiredEvents := run(c, true)
		if typed.TotalSteps() == 0 {
			t.Errorf("%s: ran no side-task steps", c.name)
		}
		if c.cfg.Faults != nil && typed.FaultStats.Total() == 0 {
			t.Errorf("%s: injected no fault", c.name)
		}
		if c.cfg.Replan != nil && typed.ManagerStats.Replans == 0 {
			t.Errorf("%s: no re-plan", c.name)
		}
		tv, wv := reflect.ValueOf(*typed), reflect.ValueOf(*wired)
		for i := range tv.NumField() {
			if f := tv.Type().Field(i).Name; !reflect.DeepEqual(tv.Field(i).Interface(), wv.Field(i).Interface()) {
				t.Errorf("%s: Result.%s differs on the wire:\n typed %+v\n wire  %+v", c.name, f, tv.Field(i), wv.Field(i))
			}
		}
		if typedEvents != wiredEvents {
			t.Errorf("%s: %d engine events on the wire, %d typed", c.name, wiredEvents, typedEvents)
		}
	}
}
