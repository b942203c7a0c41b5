package main

import (
	"net"
	"strings"
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
