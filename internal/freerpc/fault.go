// Transport-level fault injection for the in-memory pipe: the freerpc half
// of the simfault plane. A LinkFault owns both ends of a MemPipe and can
// drop frames for a window, inflate the one-way latency for a window, or
// sever the link outright. Faults apply symmetrically (both directions) —
// the modelled failure is the path between manager and worker, not one NIC.
package freerpc

import "time"

// LinkFault injects faults into a MemPipe link. Obtain one with
// InjectFaults; all methods must be called from engine-callback context (or
// before the engine runs), like every other control-plane entry point.
type LinkFault struct {
	ends [2]*memConn
}

// InjectFaults installs a fault hook on a MemPipe conn (either end) and
// returns the controller for the whole link. Installing on a non-MemPipe
// conn returns nil: the live transport fails the real way, through the OS.
// Installation itself changes nothing observable — until a fault method is
// called, the armed branch reads zero windows and injects nothing.
func InjectFaults(c Conn) *LinkFault {
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

// DropFor discards every frame sent on the link during [now, now+window).
// Senders observe success; the frames simply never arrive, so callers'
// timeout/retry paths are what fires.
func (f *LinkFault) DropFor(window time.Duration) {
	until := f.ends[0].eng.Now() + window
	for _, e := range f.ends {
		if until > e.dropUntil {
			e.dropUntil = until
		}
	}
}

// DelayFor adds extra one-way latency to every frame sent during
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

// Dropped reports the total frames discarded on the link, both directions.
func (f *LinkFault) Dropped() uint64 {
	var n uint64
	for _, e := range f.ends {
		n += e.dropped
	}
	return n
}
