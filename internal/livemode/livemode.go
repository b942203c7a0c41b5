// Package livemode runs FreeRide's control plane across real process
// boundaries: a manager daemon (freeride-managerd) speaks JSON-RPC over TCP
// to a GPU-node daemon (freeride-workerd) that hosts the simulated GPUs,
// the pipeline trainer and the per-GPU side task workers, all on the
// wall-clock engine.
//
// This is the paper's §8 "Scalability" extension: the side task manager
// "can be easily extended to distributed settings with side tasks on
// multiple servers" because every interaction already flows through RPC.
// The GPU and the training job remain simulated (ROADMAP.md, "Schedule
// model"), but the middleware under test — Algorithms 1 and 2, the state
// machine transitions, the resource-limit enforcement — runs against real
// sockets, real latency and real concurrency.
package livemode

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"freeride/internal/bubble"
	"freeride/internal/container"
	"freeride/internal/core"
	"freeride/internal/freerpc"
	"freeride/internal/model"
	"freeride/internal/pipeline"
	"freeride/internal/sidetask"
	"freeride/internal/simgpu"
	"freeride/internal/simproc"
	"freeride/internal/simtime"
)

// NodeConfig configures the GPU-node daemon.
type NodeConfig struct {
	// ListenAddrs are the per-worker TCP addresses (one per stage), e.g.
	// ["127.0.0.1:7081", ..., ":7084"]. Use port 0 to auto-assign.
	ListenAddrs []string
	// ManagerAddr is where bubble reports and notifications are sent.
	ManagerAddr string
	Model       model.LLM
	MicroBatch  int
	Epochs      int
	// StartDelay gives the manager time to dial in before training begins.
	StartDelay time.Duration
	Grace      time.Duration
	// Logf receives progress lines; nil silences.
	Logf func(format string, args ...any)
}

// Node is a running GPU-node daemon.
type Node struct {
	cfg     NodeConfig
	eng     *simtime.Wall
	trainer *pipeline.Trainer
	workers []*core.Worker

	listeners []net.Listener
	mgrPeer   *freerpc.Peer

	mu        sync.Mutex
	trainDone chan struct{}
}

// WorkerAddrs reports the actual listen addresses (after port resolution),
// in stage order.
func (n *Node) WorkerAddrs() []string {
	out := make([]string, len(n.listeners))
	for i, ln := range n.listeners {
		out[i] = ln.Addr().String()
	}
	return out
}

// TrainDone is closed when the final epoch completes.
func (n *Node) TrainDone() <-chan struct{} { return n.trainDone }

// Trainer exposes the live trainer (for result collection).
func (n *Node) Trainer() *pipeline.Trainer { return n.trainer }

// Workers exposes the node's side task workers.
func (n *Node) Workers() []*core.Worker { return n.workers }

// Close shuts the node down.
func (n *Node) Close() {
	for _, ln := range n.listeners {
		_ = ln.Close()
	}
	if n.mgrPeer != nil {
		n.mgrPeer.Close()
	}
}

// StartNode boots the node: devices, trainer, workers and listeners.
// Training begins after cfg.StartDelay.
func StartNode(cfg NodeConfig) (*Node, error) {
	if cfg.Model.Name == "" {
		cfg.Model = model.NanoGPT3B
	}
	if cfg.MicroBatch <= 0 {
		cfg.MicroBatch = 4
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 2
	}
	if cfg.StartDelay <= 0 {
		cfg.StartDelay = 2 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	stages := len(cfg.ListenAddrs)
	if stages == 0 {
		return nil, fmt.Errorf("livemode: no worker listen addresses")
	}

	eng := simtime.NewWall()
	procs := simproc.NewRuntime(eng)
	node := &Node{cfg: cfg, eng: eng, trainDone: make(chan struct{})}

	devices := make([]*simgpu.Device, stages)
	for i := range devices {
		devices[i] = simgpu.NewDevice(eng, simgpu.DeviceConfig{
			Name:         fmt.Sprintf("gpu%d", i),
			MemBytes:     model.ServerI.GPUMemBytes,
			ResidencyTax: simgpu.DefaultResidencyTax,
		})
	}
	trainer, err := pipeline.New(eng, procs, devices, pipeline.Config{
		Model:        cfg.Model,
		Stages:       stages,
		MicroBatches: cfg.MicroBatch,
		Epochs:       cfg.Epochs,
		RecordOps:    true,
	})
	if err != nil {
		return nil, err
	}
	node.trainer = trainer

	// Dial the manager for notifications and bubble reports.
	mgrPeer, err := freerpc.Dial(eng, "tcp", cfg.ManagerAddr, nil)
	if err != nil {
		return nil, fmt.Errorf("livemode: dial manager: %w", err)
	}
	node.mgrPeer = mgrPeer

	// One worker per stage, each on its own listener.
	for i := 0; i < stages; i++ {
		ctrs := container.NewRuntime(procs)
		w := core.NewWorker(eng, devices[i], ctrs, core.WorkerConfig{
			Name:  fmt.Sprintf("worker%d", i),
			Grace: cfg.Grace,
		})
		w.SetNotify(func(method string, params any) {
			_ = mgrPeer.Notify(method, params)
		})
		wmux := freerpc.NewMux()
		w.RegisterOn(wmux)
		ln, err := net.Listen("tcp", cfg.ListenAddrs[i])
		if err != nil {
			node.Close()
			return nil, fmt.Errorf("livemode: listen %s: %w", cfg.ListenAddrs[i], err)
		}
		node.listeners = append(node.listeners, ln)
		node.workers = append(node.workers, w)
		go func() { _ = freerpc.Serve(eng, ln, wmux, nil) }()
	}

	// Offline bubble profiling runs on a private virtual engine even in
	// live mode (it is an offline pass in the paper too).
	prof, err := offlineProfile(cfg.Model, stages, cfg.MicroBatch)
	if err != nil {
		node.Close()
		return nil, err
	}
	reporter := bubble.NewReporter(prof, 0)
	reporter.SetSink(func(b bubble.Bubble) {
		_ = mgrPeer.Notify("Manager.AddBubble", core.ToBubbleDTO(b))
	})
	trainer.OnCycleStart(reporter.CycleStart)

	trainer.OnCycleEnd(func(epoch int, ts time.Duration) {
		cfg.Logf("epoch %d finished at %v", epoch, ts)
		if epoch == cfg.Epochs-1 {
			close(node.trainDone)
		}
	})

	eng.Schedule(cfg.StartDelay, "train-start", func() {
		cfg.Logf("starting %s training: %d stages, %d micro-batches, %d epochs",
			cfg.Model.Name, stages, cfg.MicroBatch, cfg.Epochs)
		if err := trainer.Start(); err != nil {
			cfg.Logf("trainer start failed: %v", err)
		}
	})
	return node, nil
}

func offlineProfile(llm model.LLM, stages, mbs int) (*bubble.Profile, error) {
	eng := simtime.NewVirtual()
	procs := simproc.NewRuntime(eng)
	devices := make([]*simgpu.Device, stages)
	for i := range devices {
		devices[i] = simgpu.NewDevice(eng, simgpu.DeviceConfig{
			Name: fmt.Sprintf("prof%d", i), MemBytes: model.ServerI.GPUMemBytes,
		})
	}
	tr, err := pipeline.New(eng, procs, devices, pipeline.Config{
		Model: llm, Stages: stages, MicroBatches: mbs, Epochs: 2, RecordOps: true,
	})
	if err != nil {
		return nil, err
	}
	if err := tr.Start(); err != nil {
		return nil, err
	}
	eng.Drain(50_000_000)
	return bubble.ProfileTrainer(tr, 1, 0)
}

// ManagerConfig configures the manager daemon.
type ManagerConfig struct {
	// ListenAddr accepts node connections (bubble reports, notifications).
	ListenAddr string
	// WorkerAddrs are the node's per-stage worker endpoints, stage order.
	WorkerAddrs []string
	// Tasks are submitted once all workers are connected, e.g.
	// ["resnet18", "pagerank"]; each is placed per Algorithm 1.
	Tasks []string
	// Model and MicroBatch describe the training job on the node; the
	// manager derives each stage's bubble-available memory from them (the
	// offline bubble profile plays this role in the paper).
	Model      model.LLM
	MicroBatch int
	Tick       time.Duration
	// Lease > 0 enables the failure detector and self-healing recovery:
	// workers are pinged every Lease/2, declared dead after a silent Lease,
	// and their tasks re-placed from the last checkpoint with backoff. Zero
	// keeps the legacy no-recovery behaviour.
	Lease time.Duration
	// MaxRestarts and RetryBackoff bound recovery (zero = core defaults).
	MaxRestarts  int
	RetryBackoff time.Duration
	Logf         func(format string, args ...any)
}

// ManagerDaemon is a running manager.
type ManagerDaemon struct {
	Manager *core.Manager
	eng     *simtime.Wall
	ln      net.Listener
	peers   []*freerpc.Peer
	cfg     ManagerConfig
}

// Addr reports the listener address.
func (d *ManagerDaemon) Addr() string { return d.ln.Addr().String() }

// Close shuts the daemon down.
func (d *ManagerDaemon) Close() {
	d.Manager.Stop()
	_ = d.ln.Close()
	for _, p := range d.peers {
		p.Close()
	}
}

// StartManager boots the manager daemon's listener and Algorithm-2 loop.
// Workers are attached afterwards with ConnectWorkers (they may not exist
// yet when the manager boots), then tasks with SubmitTasks.
func StartManager(cfg ManagerConfig) (*ManagerDaemon, error) {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Tick <= 0 {
		cfg.Tick = 2 * time.Millisecond
	}
	if cfg.Model.Name == "" {
		cfg.Model = model.NanoGPT3B
	}
	if cfg.MicroBatch <= 0 {
		cfg.MicroBatch = 4
	}
	eng := simtime.NewWall()
	mgr := core.NewManager(eng, core.ManagerOptions{
		Tick: cfg.Tick, MemSlack: core.DefaultMemSlack,
		Lease: cfg.Lease, MaxRestarts: cfg.MaxRestarts, RetryBackoff: cfg.RetryBackoff,
	})

	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("livemode: manager listen: %w", err)
	}
	d := &ManagerDaemon{Manager: mgr, eng: eng, ln: ln, cfg: cfg}
	go func() { _ = freerpc.Serve(eng, ln, mgr.Mux(), nil) }()
	mgr.Start()

	if len(cfg.WorkerAddrs) > 0 {
		if err := d.ConnectWorkers(cfg.WorkerAddrs); err != nil {
			d.Close()
			return nil, err
		}
	}
	if len(cfg.Tasks) > 0 {
		d.SubmitTasks(cfg.Tasks)
	}
	return d, nil
}

// ConnectWorkers dials each worker endpoint (stage order), verifies it with
// Worker.Info, and registers it with the stage's bubble-available memory.
func (d *ManagerDaemon) ConnectWorkers(addrs []string) error {
	for stage, addr := range addrs {
		peer, err := freerpc.Dial(d.eng, "tcp", addr, d.Manager.Mux())
		if err != nil {
			return fmt.Errorf("livemode: dial worker %s: %w", addr, err)
		}
		d.peers = append(d.peers, peer)
		info, err := workerInfoOf(d.eng, peer)
		if err != nil {
			return fmt.Errorf("livemode: worker info %s: %w", addr, err)
		}
		avail := d.cfg.Model.StageMemAvailable(model.ServerI.GPUMemBytes, stage,
			len(addrs), d.cfg.MicroBatch)
		d.Manager.AddWorker(info.name, stage, avail, peer)
		d.cfg.Logf("registered %s (stage %d, %.1f GB available for side tasks)",
			info.name, stage, float64(avail)/float64(model.GiB))
	}
	return nil
}

// SubmitTasks submits named built-in tasks via Algorithm 1.
func (d *ManagerDaemon) SubmitTasks(tasks []string) {
	for i, taskName := range tasks {
		profile, err := model.TaskByName(strings.TrimSpace(taskName))
		if err != nil {
			d.cfg.Logf("unknown task %q: %v", taskName, err)
			continue
		}
		spec := core.TaskSpec{
			Name:      fmt.Sprintf("%s-%d", profile.Name, i),
			Profile:   profile,
			Mode:      sidetask.ModeIterative,
			WorkScale: sidetask.WorkSmall,
			Seed:      int64(42 + i),
		}
		placed, err := d.Manager.SubmitAndPlace(spec)
		if err != nil {
			d.cfg.Logf("submit %s rejected: %v", spec.Name, err)
			continue
		}
		d.cfg.Logf("submitted %s -> %s", spec.Name, placed)
	}
}

type liveWorkerInfo struct {
	name   string
	gpuMem int64
}

// workerInfoOf fetches Worker.Info synchronously (wall clock).
func workerInfoOf(eng simtime.Engine, peer *freerpc.Peer) (liveWorkerInfo, error) {
	type infoDTO struct {
		Name   string `json:"name"`
		GPUMem int64  `json:"gpuMem"`
	}
	done := make(chan error, 1)
	var info infoDTO
	procs := simproc.NewRuntime(eng)
	procs.Spawn("info-query", func(p *simproc.Process) error {
		err := peer.Call(p, "Worker.Info", nil, &info, 5*time.Second)
		done <- err
		return err
	})
	select {
	case err := <-done:
		if err != nil {
			return liveWorkerInfo{}, err
		}
		return liveWorkerInfo{name: info.Name, gpuMem: info.GPUMem}, nil
	case <-time.After(10 * time.Second):
		return liveWorkerInfo{}, fmt.Errorf("livemode: Worker.Info timed out")
	}
}
