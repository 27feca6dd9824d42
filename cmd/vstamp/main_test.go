package main

import (
	"strings"
	"testing"
)

func runCmd(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var sb strings.Builder
	err := run(args, &sb)
	return sb.String(), err
}

func TestSeed(t *testing.T) {
	out, err := runCmd(t, "seed")
	if err != nil {
		t.Fatalf("seed: %v", err)
	}
	if strings.TrimSpace(out) != "[ε|ε]" {
		t.Errorf("seed = %q", out)
	}
}

func TestForkUpdateJoinPipeline(t *testing.T) {
	out, err := runCmd(t, "fork", "[ε|ε]")
	if err != nil {
		t.Fatalf("fork: %v", err)
	}
	lines := strings.Fields(out)
	if len(lines) != 2 || lines[0] != "[ε|0]" || lines[1] != "[ε|1]" {
		t.Fatalf("fork = %v", lines)
	}
	out, err = runCmd(t, "update", lines[0])
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	updated := strings.TrimSpace(out)
	if updated != "[0|0]" {
		t.Fatalf("update = %q", updated)
	}
	out, err = runCmd(t, "compare", updated, lines[1])
	if err != nil {
		t.Fatalf("compare: %v", err)
	}
	if strings.TrimSpace(out) != "after" {
		t.Errorf("compare = %q", out)
	}
	out, err = runCmd(t, "join", updated, lines[1])
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if strings.TrimSpace(out) != "[ε|ε]" {
		t.Errorf("join = %q", out)
	}
}

func TestJoinNoReduce(t *testing.T) {
	out, err := runCmd(t, "join", "-noreduce", "[0|0]", "[ε|1]")
	if err != nil {
		t.Fatalf("join -noreduce: %v", err)
	}
	if strings.TrimSpace(out) != "[0|0+1]" {
		t.Errorf("join -noreduce = %q", out)
	}
	// And reduce brings it to normal form.
	out, err = runCmd(t, "reduce", strings.TrimSpace(out))
	if err != nil {
		t.Fatalf("reduce: %v", err)
	}
	if strings.TrimSpace(out) != "[ε|ε]" {
		t.Errorf("reduce = %q", out)
	}
}

func TestSyncCommand(t *testing.T) {
	out, err := runCmd(t, "sync", "[0|0]", "[ε|1]")
	if err != nil {
		t.Fatalf("sync: %v", err)
	}
	lines := strings.Fields(out)
	if len(lines) != 2 {
		t.Fatalf("sync = %v", lines)
	}
	cmp, err := runCmd(t, "compare", lines[0], lines[1])
	if err != nil {
		t.Fatalf("compare: %v", err)
	}
	if strings.TrimSpace(cmp) != "equal" {
		t.Errorf("synced stamps compare = %q", cmp)
	}
}

func TestEncodeCommand(t *testing.T) {
	out, err := runCmd(t, "encode", "[ε|ε]")
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if !strings.Contains(out, "(5 bytes)") {
		t.Errorf("encode = %q", out)
	}
	out, err = runCmd(t, "encode", "[1|0+1]")
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if strings.TrimSpace(out) != "02059806bc (5 bytes)" {
		t.Errorf("encode [1|0+1] = %q, want 02059806bc (5 bytes)", out)
	}
}

func TestHelp(t *testing.T) {
	out, err := runCmd(t, "help")
	if err != nil {
		t.Fatalf("help: %v", err)
	}
	if !strings.Contains(out, "usage: vstamp") {
		t.Errorf("help = %q", out)
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		{},                         // no command
		{"bogus"},                  // unknown command
		{"seed", "extra"},          // extra args
		{"update"},                 // missing stamp
		{"update", "[broken"},      // bad stamp
		{"join", "[ε|ε]"},          // one stamp
		{"join", "[ε|ε]", "[ε|ε]"}, // overlapping ids
		{"compare", "[ε|ε]"},       // one stamp
		{"fork", "[x|y]"},          // invalid stamp
	}
	for _, args := range cases {
		if _, err := runCmd(t, args...); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
