// Package livemode runs one FreeRide session across two processes over TCP
// (paper §8). The GPU-node daemon (freeride-workerd) and the manager daemon
// (freeride-managerd) each assemble their part through the session assembly
// (freeride.NewNodeSession, freeride.NewManagerSession) on a virtual engine
// paced to the wall clock (Eng, a simtime.Wall): the GPUs and the training
// job stay simulated and run exactly as in a simulated session, and only the
// middleware's frames cross real sockets. This package owns only the listens,
// the dials and the log.
//
// Each daemon's components belong to its engine: they run in the engine's
// callbacks, and every other goroutine — the daemon's own (assembly, Close, a
// task submission, an end-of-run read), a socket's read pump — reaches them
// only through Eng.Do.
package livemode

import (
	"fmt"
	"net"
	"time"

	"freeride"
	"freeride/internal/freerpc"
	"freeride/internal/model"
	"freeride/internal/simtime"
)

// NodeConfig configures the GPU-node daemon. Model, MicroBatch and Epochs
// shape the training job; their zero values take the freeride.Config defaults.
type NodeConfig struct {
	ListenAddrs []string      // worker addresses, one per stage; port 0 picks one
	ManagerAddr string        // where bubble reports and notifications go
	StartDelay  time.Duration // lets the manager dial in before training starts
	Model       model.LLM
	MicroBatch  int
	Epochs      int
	Logf        func(format string, args ...any) // receives progress lines; required
}

// Node is a running GPU-node daemon.
type Node struct {
	Session     *freeride.Session // devices, trainer and workers
	WorkerAddrs []string          // resolved listen addresses, stage order
	TrainDone   chan struct{}     // closed when the final epoch completes
	Eng         *simtime.Wall     // the node's engine; enter it through Eng.Do

	mgr       *freerpc.Peer
	listeners []net.Listener
	links     peerSet // the link to the manager and the manager's to the workers
}

// Close shuts the node down.
func (n *Node) Close() { n.Eng.Do(n.close) }

func (n *Node) close() {
	for _, ln := range n.listeners {
		_ = ln.Close()
	}
	n.links.close(true)
}

// StartNode dials the manager, opens one worker listener per stage and
// assembles the node on them. Training begins after cfg.StartDelay.
func StartNode(cfg NodeConfig) (*Node, error) {
	if len(cfg.ListenAddrs) == 0 {
		return nil, fmt.Errorf("livemode: no worker listen addresses")
	}
	n := &Node{TrainDone: make(chan struct{}), Eng: simtime.NewWall()}
	var err error
	n.Eng.Do(func() { err = n.start(cfg) })
	if err != nil {
		return nil, err
	}
	return n, nil
}

// start is StartNode's body, run inside n.Eng.Do.
func (n *Node) start(cfg NodeConfig) error {
	mgr, err := freerpc.Dial(n.Eng, "tcp", cfg.ManagerAddr, nil)
	if err != nil {
		return fmt.Errorf("livemode: dial manager: %w", err)
	}
	n.mgr = mgr
	n.links.add(mgr)
	for _, addr := range cfg.ListenAddrs {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			n.close()
			return fmt.Errorf("livemode: listen %s: %w", addr, err)
		}
		n.listeners = append(n.listeners, ln)
		n.WorkerAddrs = append(n.WorkerAddrs, ln.Addr().String())
	}
	sc := freeride.DefaultConfig()
	sc.LLM, sc.Stages, sc.MicroBatches, sc.Epochs = cfg.Model, len(n.listeners), cfg.MicroBatch, cfg.Epochs
	if n.Session, err = freeride.NewNodeSession(sc, n.Eng.Engine(), nodeLinks{n}); err != nil {
		n.close()
		return err
	}
	tr := n.Session.Trainer
	last := tr.Cycles() - 1
	tr.OnCycleEnd(func(epoch int, ts time.Duration) {
		cfg.Logf("epoch %d finished at %v", epoch, ts)
		if epoch == last {
			close(n.TrainDone)
		}
	})
	n.Eng.Engine().Schedule(cfg.StartDelay, "train-start", func() {
		if err := tr.Start(); err != nil {
			cfg.Logf("trainer start failed: %v", err)
		}
	})
	return nil
}

// nodeLinks makes the node's ends: each worker serves on its own listener and
// notifies, like the bubble reporter, on the node's one link to the manager.
type nodeLinks struct{ n *Node }

func (l nodeLinks) Link(stage int, _, mux *freerpc.Mux) (*freerpc.Peer, *freerpc.Peer, error) {
	if stage >= 0 {
		ln := l.n.listeners[stage]
		go func() { _ = freerpc.Serve(l.n.Eng, ln, mux, l.n.links.add) }()
	}
	return nil, l.n.mgr, nil
}

// ManagerConfig configures the manager daemon. Model and MicroBatch describe
// the node's training job (each stage's bubble memory derives from them);
// Lease > 0 arms the failure detector and recovery (core.ManagerOptions.Lease).
type ManagerConfig struct {
	ListenAddr string // accepts the node's link: bubble reports, notifications
	Model      model.LLM
	MicroBatch int
	Lease      time.Duration
	Logf       func(format string, args ...any) // receives progress lines; required
}

// ManagerDaemon is a running manager daemon.
type ManagerDaemon struct {
	Session *freeride.Session // the manager, once ConnectWorkers assembled it
	Eng     *simtime.Wall     // the manager's engine; enter it through Eng.Do

	cfg   ManagerConfig
	ln    net.Listener
	peers peerSet // the links to the workers and the node's link
}

// Addr reports the listener address.
func (d *ManagerDaemon) Addr() string { return d.ln.Addr().String() }

// Close shuts the daemon down.
func (d *ManagerDaemon) Close() {
	d.Eng.Do(func() {
		if d.Session != nil {
			d.Session.Manager.Stop()
		}
		_ = d.ln.Close()
		d.peers.close(true)
	})
}

// StartManager opens the manager daemon's listener; the node's frames wait in
// the socket until ConnectWorkers has assembled the manager.
func StartManager(cfg ManagerConfig) (*ManagerDaemon, error) {
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("livemode: manager listen: %w", err)
	}
	return &ManagerDaemon{cfg: cfg, Eng: simtime.NewWall(), ln: ln}, nil
}

// ConnectWorkers assembles the manager, linked to the node's worker endpoints
// (stage order, at least one), and starts Algorithm 2; tasks then go in with
// Session.Submit. A failed call closes what it dialed and may be retried.
//
// The Worker.Info replies run in the engine's callbacks, so they are awaited
// between two Do calls: one that assembles and asks, one that starts the
// manager (and serves the node's link) or closes the peers.
func (d *ManagerDaemon) ConnectWorkers(addrs []string) error {
	sc := freeride.DefaultConfig()
	sc.LLM, sc.Stages, sc.MicroBatches, sc.Lease = d.cfg.Model, len(addrs), d.cfg.MicroBatch, d.cfg.Lease
	l := &managerLinks{d: d, addrs: addrs}
	var sess *freeride.Session
	var err error
	d.Eng.Do(func() { sess, err = freeride.NewManagerSession(sc, d.Eng.Engine(), l) })
	for stage := 0; err == nil && stage < len(l.infos); stage++ {
		if err = <-l.infos[stage]; err != nil {
			err = fmt.Errorf("livemode: worker info %s: %w", addrs[stage], err)
		} else {
			d.cfg.Logf("linked stage %d to the worker at %s", stage, addrs[stage])
		}
	}
	d.Eng.Do(func() {
		if err != nil {
			d.peers.close(false)
			return
		}
		d.Session = sess
		sess.Manager.Start()
		go func() { _ = freerpc.Serve(d.Eng, d.ln, l.reports, d.peers.add) }()
	})
	return err
}

// managerLinks makes the manager's end of each link: it dials every worker
// endpoint with the manager's handlers and asks it for Worker.Info (the
// replies land in infos), and keeps the handlers of the node's link, which
// ConnectWorkers serves on the daemon's listener once every worker answered.
type managerLinks struct {
	d       *ManagerDaemon
	addrs   []string
	infos   []chan error
	reports *freerpc.Mux
}

func (l *managerLinks) Link(stage int, mux, _ *freerpc.Mux) (*freerpc.Peer, *freerpc.Peer, error) {
	if stage < 0 {
		l.reports = mux
		return nil, nil, nil
	}
	addr := l.addrs[stage]
	peer, err := freerpc.Dial(l.d.Eng, "tcp", addr, mux)
	if err != nil {
		return nil, nil, fmt.Errorf("livemode: dial worker %s: %w", addr, err)
	}
	l.d.peers.add(peer)
	info := make(chan error, 1)
	peer.Go("Worker.Info", nil, 5*time.Second, func(_ any, err error) { info <- err })
	l.infos = append(l.infos, info)
	return peer, nil, nil
}

// peerSet is the links a daemon hangs up when it closes. A link accepted
// after that is hung up at once. Its methods run inside the daemon's Eng.Do.
type peerSet struct {
	peers  []*freerpc.Peer
	closed bool
}

func (s *peerSet) add(p *freerpc.Peer) {
	if s.closed {
		p.Close()
		return
	}
	s.peers = append(s.peers, p)
}

// close hangs every link up; final keeps later links from staying open.
func (s *peerSet) close(final bool) {
	for _, p := range s.peers {
		p.Close()
	}
	s.peers, s.closed = nil, final
}
