package livemode

import (
	"net"
	"testing"
	"time"

	"freeride/internal/core"
	"freeride/internal/model"
)

// TestLiveModeEndToEnd runs one session across the two daemons over loopback
// TCP, each on a virtual engine paced to the wall clock: a node hosting 4
// simulated GPUs and one training epoch, and a manager harvesting its bubbles
// with a ResNet18 side task. A stray client that writes half a frame to the
// manager's listener and hangs up must not disturb the harvest. The node
// takes the simulated path: its devices lead, and the harvested task spends
// one engine event per step. The test goroutine reaches either daemon's
// components only through its engine's Do. Runs in real time (~6 s).
func TestLiveModeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("live mode runs in real time")
	}
	mgr, err := StartManager(ManagerConfig{ListenAddr: "127.0.0.1:0", Logf: t.Logf})
	if err != nil {
		t.Fatalf("manager: %v", err)
	}
	defer mgr.Close()

	// The GPU node boots, dials the manager, and schedules training to start
	// after a delay.
	node, err := StartNode(NodeConfig{
		ListenAddrs: []string{"127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"},
		ManagerAddr: mgr.Addr(),
		StartDelay:  500 * time.Millisecond,
		Model:       model.NanoGPT3B,
		Epochs:      1,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatalf("node: %v", err)
	}
	defer node.Close()

	// The manager connects to the node's workers and submits a side task
	// before training begins.
	if err := mgr.ConnectWorkers(node.WorkerAddrs); err != nil {
		t.Fatalf("connect workers: %v", err)
	}
	mgr.Eng.Do(func() { err = mgr.Session.Submit(model.ResNet18, 0) })
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	// A peer that disconnects mid-frame: the manager drops the malformed
	// tail, and the EOF closes that connection alone.
	stray, err := net.Dial("tcp", mgr.Addr())
	if err != nil {
		t.Fatalf("stray dial: %v", err)
	}
	if _, err := stray.Write([]byte(`{"method":"Manager.AddBubble","params":{"stage":0,"dur`)); err != nil {
		t.Fatalf("stray write: %v", err)
	}
	_ = stray.Close()

	select {
	case <-node.TrainDone:
	case <-time.After(30 * time.Second):
		t.Fatal("training did not finish within 30s")
	}
	// Let the final pause land.
	time.Sleep(300 * time.Millisecond)

	var steps, stepEvents uint64
	var leading int
	node.Eng.Do(func() {
		err = node.Session.Trainer.Err()
		for _, w := range node.Session.Workers {
			if h, ok := w.Harness("resnet18-1"); ok {
				steps += h.Counters().Steps
				stepEvents += h.Counters().StepEvents
			}
		}
		for _, d := range node.Session.Devices {
			if d.LeadCapable() {
				leading++
			}
		}
	})
	if err != nil {
		t.Fatalf("training failed: %v", err)
	}
	if steps == 0 {
		t.Fatal("no side-task steps harvested over live TCP control plane")
	}
	if stepEvents != steps {
		t.Errorf("harvested task spent %d engine events on %d steps, want one per step", stepEvents, steps)
	}
	if n := len(node.Session.Devices); leading != n {
		t.Errorf("%d of %d node devices lead, want all", leading, n)
	}
	var st core.ManagerStats
	mgr.Eng.Do(func() { st = mgr.Session.Manager.Stats() })
	if st.BubblesAdded == 0 || st.BubblesServed == 0 {
		t.Fatalf("manager stats: %+v — bubbles not flowing over TCP", st)
	}
	t.Logf("live mode: %d steps harvested, %d bubbles served", steps, st.BubblesServed)
}

func TestStartNodeRequiresAddrs(t *testing.T) {
	if _, err := StartNode(NodeConfig{ManagerAddr: "127.0.0.1:1", Logf: t.Logf}); err == nil {
		t.Fatal("node started without listen addresses")
	}
}

func TestStartNodeRequiresManager(t *testing.T) {
	_, err := StartNode(NodeConfig{
		ListenAddrs: []string{"127.0.0.1:0"},
		ManagerAddr: "127.0.0.1:1", // nothing listens here
		Logf:        t.Logf,
	})
	if err == nil {
		t.Fatal("node started without a reachable manager")
	}
}
