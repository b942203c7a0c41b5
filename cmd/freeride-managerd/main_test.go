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

// TestRunRejectsBadArgs: each bad argument is an error naming its cause,
// returned before the daemon listens. The listen address is held by the test,
// so a run that got as far as listening would fail with a different error.
func TestRunRejectsBadArgs(t *testing.T) {
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
		err := run(append([]string{"-listen", held.Addr().String()}, tc.args...))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run %q = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}

// TestRunReturnsOnSIGTERM: a running daemon — workers linked, a task
// deployed — shuts down on SIGTERM: run returns nil, its listen address
// refuses connections, and none of its goroutines outlives run. The stand-in
// node lives in the test's process and is closed last.
func TestRunReturnsOnSIGTERM(t *testing.T) {
	listen := freeAddr(t)
	workers := []string{freeAddr(t), freeAddr(t), freeAddr(t), freeAddr(t)}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", listen, "-workers", strings.Join(workers, ","), "-tasks", "resnet18", "-retry", "30s"})
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
