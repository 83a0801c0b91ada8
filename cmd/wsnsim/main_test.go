package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mac"
	"repro/internal/msg"
)

// runCLI executes the command with args, capturing stdout through a temp
// file (run takes *os.File so the field-map writer works unbuffered).
func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "out"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	runErr := run(args, f)
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data), runErr
}

func TestCLIBasicRun(t *testing.T) {
	out, err := runCLI(t, "-nodes", "80", "-duration", "30s", "-seed", "2")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"scheme", "greedy", "delivery ratio", "avg dissipated energy"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIVerboseAndMap(t *testing.T) {
	out, err := runCLI(t, "-nodes", "80", "-duration", "30s", "-v", "-map")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"protocol sends by kind", "MAC:", "field map", "on-tree relay"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// TestCLIVerboseDropOrder checks that -v prints the MAC's non-zero
// transmit drops in DropReason order. No short run drops frames for more
// than one reason, so the stats are synthetic.
func TestCLIVerboseDropOrder(t *testing.T) {
	var drops [mac.DropNodeOff + 1]int
	drops[mac.DropQueueFull] = 1
	drops[mac.DropNodeOff] = 3
	want := "  drops[queue-full] = 1\n  drops[node-off] = 3\n"
	var b strings.Builder
	printDrops(&b, drops)
	if b.String() != want {
		t.Fatalf("rendering:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestCLITrace(t *testing.T) {
	out, err := runCLI(t, "-nodes", "60", "-duration", "20s", "-trace", "reinforce")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "trace (") || !strings.Contains(out, "reinforce") {
		t.Errorf("trace output missing:\n%s", out)
	}
}

func TestCLIRTSCTS(t *testing.T) {
	if _, err := runCLI(t, "-nodes", "60", "-duration", "20s", "-rtscts"); err != nil {
		t.Fatal(err)
	}
}

func TestCLIErrors(t *testing.T) {
	cases := [][]string{
		{"-scheme", "bogus"},
		{"-placement", "bogus"},
		{"-agg", "bogus"},
		{"-trace", "bogus"},
		{"-nodes", "1"},
	}
	for _, args := range cases {
		if _, err := runCLI(t, args...); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestParseKinds(t *testing.T) {
	kinds, err := parseKinds("reinforce, data")
	if err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 2 || kinds[0] != msg.KindReinforce || kinds[1] != msg.KindData {
		t.Fatalf("kinds = %v", kinds)
	}
	if _, err := parseKinds("nope"); err == nil {
		t.Fatal("unknown kind accepted")
	}
}
