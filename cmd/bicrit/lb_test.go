package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"bicriteria"
)

func TestLBPrintsBounds(t *testing.T) {
	inst, err := bicriteria.GenerateWorkload(bicriteria.WorkloadConfig{
		Kind: bicriteria.WorkloadMixed, M: 10, N: 12, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "w.json")
	if err := bicriteria.SaveInstance(path, inst); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := lbCmd([]string{"-i", path}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"makespan lower bound", "squashed-area", "LP relaxation"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestLBErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := lbCmd([]string{}, &buf); err == nil {
		t.Fatalf("missing -i must fail")
	}
	if err := lbCmd([]string{"-i", "missing.json"}, &buf); err == nil {
		t.Fatalf("missing file must fail")
	}
}
