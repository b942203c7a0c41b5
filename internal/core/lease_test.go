package core

import (
	"math/rand"
	"testing"
	"time"

	"freeride/internal/freerpc"
	"freeride/internal/model"
	"freeride/internal/sidetask"
	"freeride/internal/simtime"
)

// leaseRig is one lease-armed manager watching one stub worker over a link
// the test can drop, delay and push state through.
type leaseRig struct {
	eng   *simtime.Virtual
	mgr   *Manager
	w     *workerMeta
	fault *freerpc.LinkFault
	push  func() // a Manager.TaskState push from the worker
	armed time.Duration
	lease time.Duration
}

func newLeaseRig(t *testing.T) *leaseRig {
	t.Helper()
	eng := simtime.NewVirtual()
	opts := leaseOpts()
	mgr := NewManager(eng, opts)
	mgrSide, workerSide := freerpc.MemPipe(eng, 200*time.Microsecond)
	mgrPeer := freerpc.NewPeer(eng, mgrSide, mgr.Mux())
	f := newFlakyWorker(0)
	freerpc.HandleFunc(f.mux, "Worker.Ping", func(struct{}) (any, error) {
		return pingReply{Name: "w0"}, nil
	})
	workerPeer := freerpc.NewPeer(eng, workerSide, f.mux)
	f.notify = func(method string, params any) { _ = workerPeer.Notify(method, params) }
	mgr.AddWorker("w0", 0, 22*model.GiB, mgrPeer)
	// A placed task gives the worker's state pushes a record to land on.
	if err := mgr.Submit(spec("t", model.ResNet18, sidetask.ModeIterative)); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(10 * time.Millisecond)
	r := &leaseRig{
		eng: eng, mgr: mgr, w: mgr.workers[0], fault: freerpc.InjectFaults(mgrSide),
		push:  func() { f.notify("Manager.TaskState", taskStatus{Name: "t", State: int(sidetask.StatePaused)}) },
		lease: opts.Lease,
	}
	mgr.Start()
	r.armed = eng.Now()
	return r
}

// runToDeath steps the engine until the worker is declared dead or `until`
// passes, holding the detector to the reference at every event: a live
// worker is never older than a lease, and death comes at exactly
// lastSeen+Lease. It returns the death instant (0 if the worker survived).
func (r *leaseRig) runToDeath(t *testing.T, until time.Duration) time.Duration {
	t.Helper()
	for {
		lastSeen := r.w.lastSeen
		if !r.eng.Step() {
			t.Fatalf("engine ran dry at %v with the worker alive (ping loop stopped)", r.eng.Now())
		}
		now := r.eng.Now()
		if !r.w.alive {
			if now-lastSeen != r.lease {
				t.Fatalf("declared dead at %v, %v after the last sign of life at %v; want exactly one lease (%v)",
					now, now-lastSeen, lastSeen, r.lease)
			}
			return now
		}
		if now-r.w.lastSeen > r.lease {
			t.Fatalf("alive at %v, %v after the last sign of life at %v: the lease (%v) ran out unnoticed",
				now, now-r.w.lastSeen, r.w.lastSeen, r.lease)
		}
		if now > until {
			return 0
		}
	}
}

// ticksBefore counts the ping ticks (every Lease/2 from arming) strictly
// before instant e.
func (r *leaseRig) ticksBefore(e time.Duration) uint64 {
	return uint64((e - r.armed - 1) / (r.lease / 2))
}

// TestSilentWorkerDiesOneLeaseAfterArming is the worker that never answers
// once: dead at t0+Lease, having been pinged once (at t0+Lease/2) — the tick
// due at the instant of death does not run. The count is the parent
// commit's, captured before the lease check moved onto the ping tick.
func TestSilentWorkerDiesOneLeaseAfterArming(t *testing.T) {
	r := newLeaseRig(t)
	r.fault.DropFor(time.Hour)
	died := r.runToDeath(t, 10*r.lease)
	if died != r.armed+r.lease {
		t.Fatalf("died at %v, want %v (armed at %v + lease %v)", died, r.armed+r.lease, r.armed, r.lease)
	}
	if st := r.mgr.Stats(); st.Pings != 1 || st.WorkersLost != 1 {
		t.Fatalf("stats = %+v, want 1 ping and 1 worker lost", st)
	}
}

// TestLeaseDetectorMatchesReferenceOnRandomTraces drives random refresh
// traces — ping replies, state pushes, drop windows (silence) and delay
// windows (replies and pushes that land in a burst, possibly after the tick
// that armed the check) — and holds the detector to the reference "dead at
// the first t with t − lastSeen(t) ≥ Lease", with one ping per tick before
// that instant and none after.
func TestLeaseDetectorMatchesReferenceOnRandomTraces(t *testing.T) {
	deaths, survivals := 0, 0
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := newLeaseRig(t)
		horizon := r.armed + 6*r.lease
		// Segments of random length up to two leases: healthy (two in
		// three), silent, or delayed by up to half a lease one way; pushes
		// sprinkled throughout.
		for at := r.armed; at < horizon; {
			length := time.Duration(rng.Int63n(int64(2 * r.lease)))
			switch rng.Intn(6) {
			case 0:
				r.eng.Schedule(at-r.eng.Now(), "silence", func() { r.fault.DropFor(length) })
			case 1:
				extra := time.Duration(rng.Int63n(int64(r.lease / 2)))
				r.eng.Schedule(at-r.eng.Now(), "delay", func() { r.fault.DelayFor(length, extra) })
			}
			for n := rng.Intn(3); n > 0; n-- {
				r.eng.Schedule(at+time.Duration(rng.Int63n(int64(length)+1))-r.eng.Now(), "push", r.push)
			}
			at += length
		}
		died := r.runToDeath(t, horizon)
		end := died
		if died == 0 {
			survivals++
			end = r.eng.Now()
		} else {
			deaths++
		}
		// Every tick strictly before `end` pinged; on survival the last
		// event run may itself be a tick at `end`.
		want := r.ticksBefore(end)
		if got := r.mgr.Stats().Pings; got != want && !(died == 0 && got == want+1) {
			t.Fatalf("seed %d: %d pings by %v (died at %v), want %d", seed, got, end, died, want)
		}
	}
	if deaths < 20 || survivals < 20 {
		t.Fatalf("%d deaths, %d survivals: the traces do not exercise both outcomes", deaths, survivals)
	}
}

// pingStub attaches a worker that answers Worker.Ping, over a link whose
// manager side the returned fault can silence.
func pingStub(eng *simtime.Virtual, mgr *Manager, name string) *freerpc.LinkFault {
	mgrSide, workerSide := freerpc.MemPipe(eng, 200*time.Microsecond)
	mux := freerpc.NewMux()
	freerpc.HandleFunc(mux, "Worker.Ping", func(struct{}) (any, error) {
		return pingReply{Name: name}, nil
	})
	freerpc.NewPeer(eng, workerSide, mux)
	mgr.AddWorker(name, 0, 22*model.GiB, freerpc.NewPeer(eng, mgrSide, mgr.Mux()))
	return freerpc.InjectFaults(mgrSide)
}

// TestLivenessTickEdges pins the one manager tick at its edges: once every
// worker is dead nothing is queued; a worker added to the running manager
// restarts the tick, is pinged on the next grid instant and, silenced, is
// declared dead exactly one lease after its last sign of life; Stop cancels
// the tick.
func TestLivenessTickEdges(t *testing.T) {
	eng := simtime.NewVirtual()
	opts := leaseOpts()
	half := opts.Lease / 2
	mgr := NewManager(eng, opts)
	faults := []*freerpc.LinkFault{pingStub(eng, mgr, "w0"), pingStub(eng, mgr, "w1")}
	mgr.Start()
	eng.RunFor(3 * half)
	for _, f := range faults {
		f.DropFor(time.Hour)
	}
	eng.RunFor(4 * half)
	if st := mgr.Stats(); st.WorkersLost != 2 {
		t.Fatalf("WorkersLost = %d after silencing both workers, want 2", st.WorkersLost)
	}
	if mgr.pingTimer.Pending() || eng.Pending() != 0 {
		t.Fatalf("every worker dead: tick pending = %v, %d events queued; want none", mgr.pingTimer.Pending(), eng.Pending())
	}

	eng.RunFor(half / 3) // off the grid
	fault := pingStub(eng, mgr, "w2")
	r := &leaseRig{eng: eng, mgr: mgr, w: mgr.workers[2], fault: fault, lease: opts.Lease}
	grid := mgr.epoch + (eng.Now()-mgr.epoch)/half*half + half
	pings := mgr.Stats().Pings
	for mgr.Stats().Pings == pings {
		if !eng.Step() {
			t.Fatal("engine ran dry before the added worker was pinged")
		}
	}
	if now := eng.Now(); now != grid {
		t.Fatalf("added worker first pinged at %v, want the next grid instant %v", now, grid)
	}
	eng.RunFor(time.Millisecond) // the reply lands
	if r.w.lastSeen <= grid {
		t.Fatalf("lastSeen = %v: the ping at %v was not answered", r.w.lastSeen, grid)
	}
	fault.DropFor(time.Hour)
	if died := r.runToDeath(t, eng.Now()+2*opts.Lease); died == 0 {
		t.Fatal("silenced worker never declared dead")
	}

	pingStub(eng, mgr, "w3")
	if !mgr.pingTimer.Pending() {
		t.Fatal("a worker added to the running manager did not restart the tick")
	}
	mgr.Stop()
	if mgr.pingTimer.Pending() {
		t.Fatal("Stop left the liveness tick queued")
	}
}
