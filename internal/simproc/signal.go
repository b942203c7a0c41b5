package simproc

// Signal identifies the subset of POSIX signals the FreeRide worker uses.
type Signal int

// Supported signals.
const (
	// SigStop suspends the process at its next blocking boundary
	// (SIGTSTP in the paper's imperative interface). Work already
	// submitted to the GPU is unaffected — exactly the asynchronous-kernel
	// caveat of paper §5.
	SigStop Signal = iota + 1
	// SigCont resumes a stopped process (SIGCONT).
	SigCont
	// SigKill terminates the process immediately if parked (inline
	// processes are always at a blocking boundary, so the kill is always
	// immediate for them), or at its next blocking boundary if running;
	// deferred cleanup still executes (SIGKILL, the framework-enforced
	// mechanism of paper §4.5).
	SigKill
)

// String implements fmt.Stringer.
func (s Signal) String() string {
	switch s {
	case SigStop:
		return "SIGTSTP"
	case SigCont:
		return "SIGCONT"
	case SigKill:
		return "SIGKILL"
	default:
		return "SIG?"
	}
}

// Signal delivers sig to the process. Delivery to a terminated process is a
// no-op. Must be called from engine-callback context, not from the target
// process's own goroutine (a process wishing to stop itself should simply
// return).
func (p *Process) Signal(sig Signal) {
	switch sig {
	case SigStop:
		var hook func(Signal)
		if p.state == StateRunning {
			p.state = StateStopped
			p.stopped = true
			hook = p.sigHook
		}
		if hook != nil {
			hook(SigStop)
		}

	case SigCont:
		if p.state != StateStopped {
			return
		}
		p.state = StateRunning
		p.stopped = false
		hook := p.sigHook
		if hook != nil {
			// Before draining the deferred wake: the hook may need to
			// restore state (a held host lead) the continuation reads.
			hook(SigCont)
		}
		p.deliverPending()

	case SigKill:
		if p.state == StateExited || p.state == StateKilled {
			return
		}
		p.killed = true
		p.stopped = false
		p.hasPending = false
		p.pendingData = nil
		if p.inline {
			// Inline processes are always at a blocking boundary when an
			// engine callback runs, so the kill takes effect immediately:
			// drop the armed wait and run the exit hooks now.
			p.exitInline(ErrKilled)
			return
		}
		if p.parked {
			p.resume(nil, true)
		}
		// If not parked (running: the signal comes from its own body, or
		// from a body it resumed), the kill flag fires at the next park.
	}
}

// Stopped reports whether the process is currently suspended by SigStop.
func (p *Process) Stopped() bool {
	return p.stopped
}
