package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"bicriteria"
)

func writeWorkload(t *testing.T) string {
	t.Helper()
	inst, err := bicriteria.GenerateWorkload(bicriteria.WorkloadConfig{
		Kind: bicriteria.WorkloadHighlyParallel, M: 12, N: 15, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "w.json")
	if err := bicriteria.SaveInstance(path, inst); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSchedAllAlgorithms(t *testing.T) {
	path := writeWorkload(t)
	for _, algo := range []string{"demt", "gang", "sequential", "list", "lptf", "saf"} {
		var buf bytes.Buffer
		if err := schedCmd([]string{"-i", path, "-algo", algo}, &buf); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		out := buf.String()
		if !strings.Contains(out, "makespan") || !strings.Contains(out, "ratio") {
			t.Fatalf("%s: missing metrics in output:\n%s", algo, out)
		}
	}
}

func TestSchedGanttAndAssignments(t *testing.T) {
	path := writeWorkload(t)
	var buf bytes.Buffer
	if err := schedCmd([]string{"-i", path, "-algo", "demt", "-gantt", "-assignments", "-lp"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Gantt chart") || !strings.Contains(out, "task") {
		t.Fatalf("missing Gantt or assignment output:\n%s", out)
	}
}

func TestSchedErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := schedCmd([]string{}, &buf); err == nil {
		t.Fatalf("missing input file must fail")
	}
	if err := schedCmd([]string{"-i", "does-not-exist.json"}, &buf); err == nil {
		t.Fatalf("missing file must fail")
	}
	path := writeWorkload(t)
	if err := schedCmd([]string{"-i", path, "-algo", "bogus"}, &buf); err == nil {
		t.Fatalf("unknown algorithm must fail")
	}
}
