package main

import (
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatalf("list: %v", err)
	}
	if err := run([]string{"-run", "list"}); err != nil {
		t.Fatalf("-run list: %v", err)
	}
}

func TestRunSingleExperiment(t *testing.T) {
	if err := run([]string{"-run", "fig1", "-epochs", "4"}); err != nil {
		t.Fatalf("fig1: %v", err)
	}
}

func TestRunUnknownID(t *testing.T) {
	if err := run([]string{"-run", "fig99"}); err == nil {
		t.Fatal("unknown experiment id accepted")
	}
}

// An unknown id alongside valid ones must fail upfront — before any of the
// valid experiments run — not silently skip.
func TestRunUnknownIDAmongValid(t *testing.T) {
	err := run([]string{"-run", "fig1,fig99", "-epochs", "4"})
	if err == nil {
		t.Fatal("unknown experiment id among valid ones accepted")
	}
	if !strings.Contains(err.Error(), "fig99") {
		t.Fatalf("error does not name the bad id: %v", err)
	}
	if !strings.Contains(err.Error(), "serving") {
		t.Fatalf("error does not list valid ids: %v", err)
	}
}

func TestRunServingSharded(t *testing.T) {
	if err := run([]string{"-run", "serving", "-epochs", "4", "-shard", "0/4"}); err != nil {
		t.Fatalf("serving shard: %v", err)
	}
}

// TestRunShardFlag: every experiment's grid honours -shard (Table 2 ran in
// full on every shard before), and a shard that is out of range or not
// exactly k/n is refused before anything runs.
func TestRunShardFlag(t *testing.T) {
	if err := run([]string{"-run", "table2,fig9", "-epochs", "4", "-shard", "1/2"}); err != nil {
		t.Fatalf("table2,fig9 shard 1/2: %v", err)
	}
	for _, bad := range []string{"2/2", "-1/2", "0/0", "1/2x", "1x/2", "1", "1/2/3", "/"} {
		if err := run([]string{"-run", "table2", "-epochs", "4", "-shard", bad}); err == nil {
			t.Errorf("-shard %q accepted", bad)
		}
	}
}
