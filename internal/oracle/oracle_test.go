package oracle

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestResolve(t *testing.T) {
	for _, tc := range []struct {
		name    string
		environ []string
		want    Overrides
	}{
		{"empty", nil, Overrides{}},
		{"unrelated variables", []string{"PATH=/bin", "FREERIDE_CHAOS_SEED=2", "FREERIDE_ORACLE=x"}, Overrides{}},
		{"drift on", []string{"FREERIDE_ORACLE_DRIFT=on"}, Overrides{DriftArmed: true}},
		{"drift 1", []string{"FREERIDE_ORACLE_DRIFT=1"}, Overrides{DriftArmed: true}},
		{"drift off", []string{"FREERIDE_ORACLE_DRIFT=off"}, Overrides{}},
		{"drift 0", []string{"FREERIDE_ORACLE_DRIFT=0"}, Overrides{}},
		{"set but empty", []string{"FREERIDE_ORACLE_DRIFT="}, Overrides{}},
		{"no equals sign", []string{"FREERIDE_ORACLE_DRIFT"}, Overrides{}},
	} {
		if got := resolve(tc.environ); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: resolve(%q) = %+v, want %+v", tc.name, tc.environ, got, tc.want)
		}
	}
}

// TestResolvePanicsNamingTheVariable: a bad value, a misspelt name and a
// retired arm must all stop the process, and the message must say which
// variable did it.
func TestResolvePanicsNamingTheVariable(t *testing.T) {
	for _, tc := range []struct {
		name    string
		environ []string
		mention string
	}{
		{"bad value", []string{"FREERIDE_ORACLE_DRIFT=yes"}, "FREERIDE_ORACLE_DRIFT"},
		{"bad value after a good one", []string{"FREERIDE_ORACLE_DRIFT=on", "FREERIDE_ORACLE_DRIFT=armed"}, "FREERIDE_ORACLE_DRIFT"},
		{"retired serving arm", []string{"FREERIDE_ORACLE_SERVING=on"}, "FREERIDE_ORACLE_SERVING"},
		{"retired serving arm, disarmed", []string{"FREERIDE_ORACLE_DRIFT=on", "FREERIDE_ORACLE_SERVING=off"}, "FREERIDE_ORACLE_SERVING"},
		{"misspelt name", []string{"FREERIDE_ORACLE_DRFIT=on"}, "FREERIDE_ORACLE_DRFIT"},
		{"retired arm", []string{"PATH=/bin", "FREERIDE_ORACLE_MANAGER=polling"}, "FREERIDE_ORACLE_MANAGER"},
		{"retired arm at its old default", []string{"FREERIDE_ORACLE_STEPFUSE=on"}, "FREERIDE_ORACLE_STEPFUSE"},
		{"unknown name set empty", []string{"FREERIDE_ORACLE_SCHEDULE="}, "FREERIDE_ORACLE_SCHEDULE"},
	} {
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			resolve(tc.environ)
			return
		}()
		if !strings.HasPrefix(msg, "oracle: ") || !strings.Contains(msg, tc.mention) {
			t.Errorf("%s: resolve(%q) panic = %q, want an oracle panic naming %s", tc.name, tc.environ, msg, tc.mention)
		}
	}
}
