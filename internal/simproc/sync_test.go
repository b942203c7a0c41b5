package simproc

import (
	"testing"
	"time"
)

func TestLatchAlreadySet(t *testing.T) {
	var l Latch
	if l.IsSet() {
		t.Fatal("zero latch is set")
	}
	l.Set()
	l.Set() // idempotent
	if !l.IsSet() {
		t.Fatal("IsSet = false")
	}
}

func TestMailboxSendThenRecv(t *testing.T) {
	eng, rt := newRT()
	m := NewMailbox[any]()
	m.Send("a")
	m.Send("b")
	var got []any
	rt.Spawn("rx", func(p *Process) error {
		for i := 0; i < 2; i++ {
			msg, ok := m.Recv(p)
			if !ok {
				t.Error("Recv not ok")
			}
			got = append(got, msg)
		}
		return nil
	})
	eng.MustDrain(100)
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("got %v, want [a b]", got)
	}
}

func TestMailboxBlockingRecv(t *testing.T) {
	eng, rt := newRT()
	m := NewMailbox[any]()
	var at time.Duration
	rt.Spawn("rx", func(p *Process) error {
		msg, ok := m.Recv(p)
		if !ok || msg != 42 {
			t.Errorf("Recv = %v/%v, want 42/true", msg, ok)
		}
		at = p.Now()
		return nil
	})
	eng.Schedule(3*time.Second, "tx", func() { m.Send(42) })
	eng.MustDrain(100)
	if at != 3*time.Second {
		t.Fatalf("received at %v, want 3s", at)
	}
}

func TestMailboxCloseWakesReceiver(t *testing.T) {
	eng, rt := newRT()
	m := NewMailbox[any]()
	closed := false
	rt.Spawn("rx", func(p *Process) error {
		_, ok := m.Recv(p)
		closed = !ok
		return nil
	})
	eng.Schedule(time.Second, "close", func() { m.Close() })
	eng.MustDrain(100)
	if !closed {
		t.Fatal("Recv on closed mailbox reported ok")
	}
}

func TestMailboxTryRecv(t *testing.T) {
	m := NewMailbox[any]()
	if _, ok := m.TryRecv(); ok {
		t.Fatal("TryRecv on empty = ok")
	}
	m.Send(1)
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
	if v, ok := m.TryRecv(); !ok || v != 1 {
		t.Fatalf("TryRecv = %v/%v", v, ok)
	}
}

func TestMailboxSendAfterCloseDropped(t *testing.T) {
	m := NewMailbox[any]()
	m.Close()
	m.Send(1)
	if m.Len() != 0 {
		t.Fatal("send after close was queued")
	}
}
