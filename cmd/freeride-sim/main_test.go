package main

import (
	"net"
	"os"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"freeride/internal/livemode"
)

// TestRunUnknownVerb: a first argument that is neither a flag nor a verb is
// an error naming every verb, not a silent run of the default one.
func TestRunUnknownVerb(t *testing.T) {
	err := run([]string{"simulate", "-epochs", "2"})
	if err == nil {
		t.Fatal("unknown verb accepted")
	}
	for _, verb := range []string{`"simulate"`, "run", "profile", "experiments", "manager", "worker"} {
		if !strings.Contains(err.Error(), verb) {
			t.Errorf("error %q does not name %s", err, verb)
		}
	}
}

// --- run --------------------------------------------------------------------

func TestRunIterativeQuick(t *testing.T) {
	for _, args := range [][]string{
		{"-epochs", "4", "-tasks", "pagerank", "-realwork=false"},
		{"run", "-epochs", "4", "-tasks", "pagerank", "-realwork=false"},
	} {
		if err := run(args); err != nil {
			t.Fatalf("run %q: %v", args, err)
		}
	}
}

func TestRunMixedQuick(t *testing.T) {
	if err := run([]string{"-epochs", "3", "-tasks", "pagerank,resnet18,image,vgg19", "-mixed", "-realwork=false"}); err != nil {
		t.Fatalf("run mixed: %v", err)
	}
}

func TestRunRejectsUnknownMethod(t *testing.T) {
	if err := run([]string{"-method", "quantum"}); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestRunRejectsUnknownTask(t *testing.T) {
	if err := run([]string{"-epochs", "2", "-tasks", "bitcoin"}); err == nil {
		t.Fatal("unknown task accepted")
	}
}

func TestRunRejectsUnknownModel(t *testing.T) {
	if err := run([]string{"-model", "13b"}); err == nil {
		t.Fatal("unknown model accepted")
	}
}

// --- profile ----------------------------------------------------------------

func TestProfileBubbles(t *testing.T) {
	if err := run([]string{"profile", "-bubbles", "-model", "3.6b"}); err != nil {
		t.Fatalf("bubbles: %v", err)
	}
}

func TestProfileTask(t *testing.T) {
	if err := run([]string{"profile", "-task", "pagerank"}); err != nil {
		t.Fatalf("task: %v", err)
	}
}

func TestProfileImperativeTask(t *testing.T) {
	if err := run([]string{"profile", "-task", "image", "-mode", "imperative"}); err != nil {
		t.Fatalf("imperative: %v", err)
	}
}

func TestProfileNothingErrors(t *testing.T) {
	if err := run([]string{"profile"}); err == nil {
		t.Fatal("no-op invocation accepted")
	}
}

func TestProfileUnknownTask(t *testing.T) {
	if err := run([]string{"profile", "-task", "nope"}); err == nil {
		t.Fatal("unknown task accepted")
	}
}

// TestProfileUnknownMode: a misspelt -mode is refused with an error naming
// both interfaces, not profiled as the iterative one.
func TestProfileUnknownMode(t *testing.T) {
	err := run([]string{"profile", "-task", "pagerank", "-mode", "imperitave"})
	if err == nil {
		t.Fatal("unknown mode accepted")
	}
	for _, want := range []string{"imperitave", "iterative", "imperative"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}

// --- experiments ------------------------------------------------------------

func TestRunList(t *testing.T) {
	if err := run([]string{"experiments", "-run", "list"}); err != nil {
		t.Fatalf("-run list: %v", err)
	}
}

func TestRunSingleExperiment(t *testing.T) {
	if err := run([]string{"experiments", "-run", "fig1", "-epochs", "4"}); err != nil {
		t.Fatalf("fig1: %v", err)
	}
}

func TestRunUnknownID(t *testing.T) {
	if err := run([]string{"experiments", "-run", "fig99"}); err == nil {
		t.Fatal("unknown experiment id accepted")
	}
}

// An unknown id alongside valid ones must fail upfront — before any of the
// valid experiments run — not silently skip.
func TestRunUnknownIDAmongValid(t *testing.T) {
	err := run([]string{"experiments", "-run", "fig1,fig99", "-epochs", "4"})
	if err == nil {
		t.Fatal("unknown experiment id among valid ones accepted")
	}
	if !strings.Contains(err.Error(), "fig99") {
		t.Fatalf("error does not name the bad id: %v", err)
	}
	if !strings.Contains(err.Error(), "serving") {
		t.Fatalf("error does not list valid ids: %v", err)
	}
}

func TestRunServingSharded(t *testing.T) {
	if err := run([]string{"experiments", "-run", "serving", "-epochs", "4", "-shard", "0/4"}); err != nil {
		t.Fatalf("serving shard: %v", err)
	}
}

// TestRunShardFlag: every experiment's grid honours -shard (Table 2 ran in
// full on every shard before), and a shard that is out of range or not
// exactly k/n is refused before anything runs.
func TestRunShardFlag(t *testing.T) {
	if err := run([]string{"experiments", "-run", "table2,fig9", "-epochs", "4", "-shard", "1/2"}); err != nil {
		t.Fatalf("table2,fig9 shard 1/2: %v", err)
	}
	for _, bad := range []string{"2/2", "-1/2", "0/0", "1/2x", "1x/2", "1", "1/2/3", "/"} {
		if err := run([]string{"experiments", "-run", "table2", "-epochs", "4", "-shard", bad}); err == nil {
			t.Errorf("-shard %q accepted", bad)
		}
	}
}

// --- manager ----------------------------------------------------------------

// TestManagerRejectsBadArgs: each bad argument is an error naming its cause,
// returned before the daemon listens. The listen address is held by the test,
// so a run that got as far as listening would fail with a different error.
func TestManagerRejectsBadArgs(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-model", "13b", "-workers", "127.0.0.1:1"}, `unknown LLM preset "13b"`},
		{[]string{"-microbatches", "four"}, `invalid value "four" for flag -microbatches`},
		{[]string{"-retry", "soon"}, `invalid value "soon" for flag -retry`},
		{[]string{"-tasks", "resnet18"}, "-workers"},
	} {
		err := run(append([]string{"manager", "-listen", held.Addr().String()}, tc.args...))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run %q = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}

// TestManagerReturnsOnSIGTERM: a running daemon — workers linked, a task
// deployed — shuts down on SIGTERM: run returns nil, its listen address
// refuses connections, and none of its goroutines outlives run. The stand-in
// node lives in the test's process and is closed last.
func TestManagerReturnsOnSIGTERM(t *testing.T) {
	listen := freeAddr(t)
	workers := []string{freeAddr(t), freeAddr(t), freeAddr(t), freeAddr(t)}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"manager", "-listen", listen, "-workers", strings.Join(workers, ","), "-tasks", "resnet18", "-retry", "30s"})
	}()

	// A GPU node whose training never starts: once the daemon has linked it
	// and deployed the task, run only waits for a signal.
	var node *livemode.Node
	deadline := time.Now().Add(30 * time.Second)
	for {
		var err error
		node, err = livemode.StartNode(livemode.NodeConfig{ListenAddrs: workers, ManagerAddr: listen, StartDelay: time.Hour, Logf: t.Logf})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer node.Close()
	for created := uint64(0); created == 0; {
		select {
		case err := <-done:
			t.Fatalf("run returned before deploying its task: %v", err)
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("the daemon never deployed its task")
		}
		node.Eng.Do(func() {
			for _, w := range node.Session.Workers {
				created += w.Stats().Created
			}
		})
	}

	sigterm(t, done)
	if c, err := net.Dial("tcp", listen); err == nil {
		c.Close()
		t.Errorf("%s still accepts connections after shutdown", listen)
	}
	// The daemon hangs up every link, so each read pump ends, the node's
	// included; then, with the node closed, nothing of the module runs.
	awaitNoGoroutines(t, "freeride/internal/freerpc.(*netConn).readLoop")
	node.Close()
	awaitNoGoroutines(t, "freeride/")
}

// --- worker -----------------------------------------------------------------

// TestWorkerRejectsBadArgs: each bad argument is an error naming its cause,
// returned before the daemon dials its manager or listens on a port.
func TestWorkerRejectsBadArgs(t *testing.T) {
	mgr, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-model", "13b"}, `unknown LLM preset "13b"`},
		{[]string{"-epochs", "many"}, `invalid value "many" for flag -epochs`},
		{[]string{"-ports", ""}, "empty entry"},
		{[]string{"-ports", "7081,,7083"}, "empty entry"},
		{[]string{"-ports", "7081, "}, "empty entry"},
	} {
		err := run(append([]string{"worker", "-manager", mgr.Addr().String()}, tc.args...))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run %q = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
	_ = mgr.(*net.TCPListener).SetDeadline(time.Now().Add(50 * time.Millisecond))
	if c, err := mgr.Accept(); err == nil {
		c.Close()
		t.Error("a rejected run dialed the manager")
	}
}

// TestWorkerReturnsOnSIGTERM: SIGTERM before training ends shuts the daemon
// down: run returns nil, its worker ports refuse connections, and none of
// its goroutines outlives run — a worker link whose far end stays open
// included.
func TestWorkerReturnsOnSIGTERM(t *testing.T) {
	mgr, err := net.Listen("tcp", "127.0.0.1:0") // stands in for the manager daemon
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	var ports, addrs []string
	for range 4 {
		addr := freeAddr(t)
		_, port, _ := net.SplitHostPort(addr)
		ports, addrs = append(ports, port), append(addrs, addr)
	}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"worker", "-manager", mgr.Addr().String(), "-ports", strings.Join(ports, ","), "-start-delay", "1h"})
	}()
	for _, addr := range addrs {
		for c, err := net.Dial("tcp", addr); ; c, err = net.Dial("tcp", addr) {
			if err == nil {
				defer c.Close()
				break
			}
			select {
			case err := <-done:
				t.Fatalf("run returned before listening on %s: %v", addr, err)
			case <-time.After(10 * time.Millisecond):
			}
		}
	}
	sigterm(t, done)
	for _, addr := range addrs {
		if c, err := net.Dial("tcp", addr); err == nil {
			c.Close()
			t.Errorf("%s still accepts connections after shutdown", addr)
		}
	}
	awaitNoGoroutines(t, "freeride/")
}

// sigterm sends the test process SIGTERM and fails t unless the daemon's run,
// reporting on done, returns nil within 10 s.
func sigterm(t *testing.T, done <-chan error) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after SIGTERM = %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after SIGTERM")
	}
}

// awaitNoGoroutines fails t unless, within 2 s, no goroutine but the
// caller's holds a frame whose function name starts with prefix.
func awaitNoGoroutines(t *testing.T, prefix string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		var stray []string
		for _, g := range strings.Split(string(buf), "\n\n")[1:] { // [0] is the caller
			if strings.Contains("\n"+g, "\n"+prefix) {
				stray = append(stray, g)
			}
		}
		if len(stray) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines in %s outlived run; the first:\n%s", len(stray), prefix, stray[0])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// freeAddr returns a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}
