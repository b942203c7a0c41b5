package main

import (
	"net"
	"os"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestRunRejectsBadArgs: each bad argument is an error naming its cause,
// returned before the daemon dials its manager or listens on a port.
func TestRunRejectsBadArgs(t *testing.T) {
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
		err := run(append([]string{"-manager", mgr.Addr().String()}, tc.args...))
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

// TestRunReturnsOnSIGTERM: SIGTERM before training ends shuts the daemon
// down: run returns nil, its worker ports refuse connections, and none of
// its goroutines outlives run — a worker link whose far end stays open
// included.
func TestRunReturnsOnSIGTERM(t *testing.T) {
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
		done <- run([]string{"-manager", mgr.Addr().String(), "-ports", strings.Join(ports, ","), "-start-delay", "1h"})
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
	for _, addr := range addrs {
		if c, err := net.Dial("tcp", addr); err == nil {
			c.Close()
			t.Errorf("%s still accepts connections after shutdown", addr)
		}
	}
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
