package freerpc

import (
	"testing"
	"time"

	"freeride/internal/simtime"
)

func TestLinkFaultDropWindow(t *testing.T) {
	eng := simtime.NewVirtual()
	a, b := FramePipe(eng, time.Millisecond)
	var got []string
	b.SetRecvHandler(func(f []byte) { got = append(got, string(f)) })

	lf := InjectFaults(a)
	if lf == nil {
		t.Fatalf("InjectFaults returned nil for a FramePipe end")
	}

	// One frame before the window, two inside, one after.
	if err := a.Send([]byte("pre")); err != nil {
		t.Fatal(err)
	}
	eng.Schedule(5*time.Millisecond, "arm", func() { lf.DropFor(10 * time.Millisecond) })
	eng.Schedule(7*time.Millisecond, "in1", func() { _ = a.Send([]byte("in1")) })
	eng.Schedule(14*time.Millisecond, "in2", func() { _ = b.Send([]byte("in2")) }) // other direction drops too
	eng.Schedule(20*time.Millisecond, "post", func() { _ = a.Send([]byte("post")) })
	eng.RunFor(50 * time.Millisecond)

	if len(got) != 2 || got[0] != "pre" || got[1] != "post" {
		t.Fatalf("received %v, want [pre post]", got)
	}
	if lf.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", lf.Dropped())
	}
}

func TestLinkFaultDelayWindow(t *testing.T) {
	eng := simtime.NewVirtual()
	a, b := FramePipe(eng, time.Millisecond)
	var arrivals []time.Duration
	b.SetRecvHandler(func([]byte) { arrivals = append(arrivals, eng.Now()) })

	lf := InjectFaults(a)
	lf.DelayFor(10*time.Millisecond, 4*time.Millisecond)
	_ = a.Send([]byte("slow")) // t=0, latency 1ms + 4ms extra
	eng.Schedule(15*time.Millisecond, "fast", func() { _ = a.Send([]byte("fast")) })
	eng.RunFor(50 * time.Millisecond)

	want := []time.Duration{5 * time.Millisecond, 16 * time.Millisecond}
	if len(arrivals) != 2 || arrivals[0] != want[0] || arrivals[1] != want[1] {
		t.Fatalf("arrivals %v, want %v", arrivals, want)
	}
}

func TestLinkFaultSeverClosesBothEnds(t *testing.T) {
	eng := simtime.NewVirtual()
	a, b := FramePipe(eng, time.Millisecond)
	closed := 0
	a.OnClose(func() { closed++ })
	b.OnClose(func() { closed++ })
	lf := InjectFaults(b)
	lf.Sever()
	eng.RunFor(10 * time.Millisecond)
	if closed != 2 {
		t.Fatalf("closed hooks fired %d times, want 2", closed)
	}
	if err := a.Send([]byte("x")); err != ErrClosed {
		t.Fatalf("send after sever: %v, want ErrClosed", err)
	}
}

func TestInjectFaultsIdleIsInert(t *testing.T) {
	// An installed-but-idle LinkFault must not perturb delivery at all.
	eng := simtime.NewVirtual()
	a, b := FramePipe(eng, time.Millisecond)
	var at time.Duration
	b.SetRecvHandler(func([]byte) { at = eng.Now() })
	InjectFaults(a)
	_ = a.Send([]byte("x"))
	eng.RunFor(10 * time.Millisecond)
	if at != time.Millisecond {
		t.Fatalf("delivery at %v, want 1ms", at)
	}
}

// TestInjectFaultsOnWireEnd: a Wire on a FramePipe end hooks the pipe below
// it, and a conn that is no in-memory link gets no hook.
func TestInjectFaultsOnWireEnd(t *testing.T) {
	eng := simtime.NewVirtual()
	a, b := FramePipe(eng, time.Millisecond)
	var got int
	b.SetRecvHandler(func([]byte) { got++ })
	lf := InjectFaults(Wire(a))
	if lf == nil {
		t.Fatal("InjectFaults returned nil for a Wire on a FramePipe end")
	}
	lf.DropFor(time.Second)
	_ = a.Send([]byte("x"))
	eng.RunFor(10 * time.Millisecond)
	if got != 0 || lf.Dropped() != 1 {
		t.Fatalf("%d frames delivered, %d dropped; want 0 and 1", got, lf.Dropped())
	}
	if InjectFaults(&refusingConn{}) != nil {
		t.Fatal("InjectFaults hooked a conn that is no in-memory link")
	}
}
