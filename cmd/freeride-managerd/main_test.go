package main

import (
	"net"
	"strings"
	"testing"
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
