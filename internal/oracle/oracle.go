// Package oracle resolves the FREERIDE_ORACLE_* environment overrides: CI's
// way of re-running the whole tier-1 suite with a dormant plane armed. The
// one plane left, FREERIDE_ORACLE_DRIFT, wires machinery into every training
// session at its zero configuration — the drift detector over an empty drift
// schedule — and every result must stay bit-identical; no alternate
// implementation hides behind it. Package freeride is the only consumer.
//
// The resolver is strict: a bad value, or any other FREERIDE_ORACLE_*
// variable (a typo, or a row naming an arm that no longer exists), panics at
// first use naming the variable — a CI row must fail, not silently run the
// default configuration and report green.
package oracle

import (
	"fmt"
	"os"
	"strings"
	"sync"
)

const (
	prefix   = "FREERIDE_ORACLE_"
	driftKey = prefix + "DRIFT"
)

// Overrides is the parsed-once view of the FREERIDE_ORACLE_* environment.
type Overrides struct {
	// DriftArmed: FREERIDE_ORACLE_DRIFT=on arms the drift detector (with an
	// empty drift schedule) in every session without its own drift plane.
	DriftArmed bool
}

// Env returns the process-wide parsed overrides. The environment is read
// once; later mutations of os.Environ are invisible.
var Env = sync.OnceValue(func() Overrides { return resolve(os.Environ()) })

// resolve parses a "KEY=value" environment listing.
func resolve(environ []string) Overrides {
	var o Overrides
	for _, kv := range environ {
		key, val, _ := strings.Cut(kv, "=")
		switch {
		case key == driftKey:
			o.DriftArmed = armed(key, val)
		case strings.HasPrefix(key, prefix):
			panic(fmt.Sprintf("oracle: unknown variable %s=%q (want %s)", key, val, driftKey))
		}
	}
	return o
}

// armed reports whether val is an armed spelling ("on", "1"); the empty
// string and the disarmed spellings ("off", "0") report false.
func armed(key, val string) bool {
	switch val {
	case "on", "1":
		return true
	case "", "off", "0":
		return false
	}
	panic(fmt.Sprintf("oracle: bad %s %q (want on, 1, off or 0)", key, val))
}
