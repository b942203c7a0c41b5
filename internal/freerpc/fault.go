// Transport-level fault injection for the in-memory pipe: the freerpc half
// of the simfault plane. A LinkFault owns both ends of a MemPipe (or of a
// FramePipe) and can drop messages for a window, inflate the one-way latency for a window, or
// sever the link outright. Faults apply symmetrically (both directions) —
// the modelled failure is the path between manager and worker, not one NIC.
package freerpc

import (
	"io"
	"time"
)

// LinkFault injects faults into a MemPipe link. Obtain one with
// InjectFaults; all methods must be called from engine-callback context (or
// before the engine runs), like every other control-plane entry point.
type LinkFault struct {
	ends [2]*memConn
}

// InjectFaults installs a fault hook on an in-memory link and returns the
// controller for the whole link. c is either end of a MemPipe or of a
// FramePipe, or a Wire on a FramePipe end. Installing on any other conn
// returns nil: the live transport fails the real way, through the OS.
// Installation itself changes nothing observable — until a fault method is
// called, the armed branch reads zero windows and injects nothing.
func InjectFaults(c io.Closer) *LinkFault {
	if w, ok := c.(*wire); ok {
		c = w.fc
	}
	if f, ok := c.(frameEnd); ok {
		c = f.memConn
	}
	mc, ok := c.(*memConn)
	if !ok {
		return nil
	}
	f := &LinkFault{ends: [2]*memConn{mc, mc.peer}}
	for _, e := range f.ends {
		e.faulty = true
	}
	return f
}

// DropFor discards every message sent on the link during [now, now+window).
// Senders observe success; the messages simply never arrive, so callers'
// timeout/retry paths are what fires.
func (f *LinkFault) DropFor(window time.Duration) {
	until := f.ends[0].eng.Now() + window
	for _, e := range f.ends {
		if until > e.dropUntil {
			e.dropUntil = until
		}
	}
}

// DelayFor adds extra one-way latency to every message sent during
// [now, now+window).
func (f *LinkFault) DelayFor(window, extra time.Duration) {
	until := f.ends[0].eng.Now() + window
	for _, e := range f.ends {
		if until > e.delayUntil {
			e.delayUntil = until
		}
		e.extraDelay = extra
	}
}

// Sever closes the link from end 0; the FIN reaches the peer after one
// latency, exactly like a local Close.
func (f *LinkFault) Sever() { _ = f.ends[0].Close() }

// Dropped reports the total messages discarded on the link, both directions.
func (f *LinkFault) Dropped() uint64 {
	var n uint64
	for _, e := range f.ends {
		n += e.dropped
	}
	return n
}
