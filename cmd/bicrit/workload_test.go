package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"bicriteria"
)

func TestWorkloadWritesInstance(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "w.json")
	var buf bytes.Buffer
	if err := workloadCmd([]string{"-kind", "mixed", "-m", "16", "-n", "12", "-seed", "3", "-o", out}, &buf); err != nil {
		t.Fatal(err)
	}
	inst, err := bicriteria.LoadInstance(out)
	if err != nil {
		t.Fatal(err)
	}
	if inst.N() != 12 || inst.M != 16 {
		t.Fatalf("generated instance has wrong shape: %d tasks, %d processors", inst.N(), inst.M)
	}
}

func TestWorkloadRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := workloadCmd([]string{"-kind", "nonsense"}, &buf); err == nil {
		t.Fatalf("unknown kind must fail")
	}
	if err := workloadCmd([]string{"-kind", "cirne", "-n", "0"}, &buf); err == nil {
		t.Fatalf("zero tasks must fail")
	}
	if err := workloadCmd([]string{"-bogus"}, &buf); err == nil {
		t.Fatalf("unknown flag must fail")
	}
	if err := workloadCmd([]string{"-arrivals", filepath.Join(t.TempDir(), "a.json"), "-arrival", "nonsense"}, &buf); err == nil {
		t.Fatalf("unknown arrival law must fail")
	}
}

func TestWorkloadWritesArrivalStream(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "stream.json")
	var buf bytes.Buffer
	args := []string{"-arrivals", path, "-kind", "mixed", "-m", "24", "-n", "30",
		"-rate", "5", "-burst", "3", "-arrival", "lognormal", "-seed", "9"}
	if err := workloadCmd(args, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "wrote 30 arrivals") {
		t.Fatalf("unexpected output: %s", buf.String())
	}
	arrivals, m, err := bicriteria.LoadArrivals(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 30 || m != 24 {
		t.Fatalf("round-trip gave %d arrivals for %d processors, want 30 / 24", len(arrivals), m)
	}
	// The same flags must reproduce the identical stream (determinism).
	var buf2 bytes.Buffer
	path2 := filepath.Join(dir, "stream2.json")
	args2 := append([]string(nil), args...)
	args2[1] = path2
	if err := workloadCmd(args2, &buf2); err != nil {
		t.Fatal(err)
	}
	again, _, err := bicriteria.LoadArrivals(path2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range arrivals {
		if arrivals[i].Submit != again[i].Submit || arrivals[i].Task.ID != again[i].Task.ID {
			t.Fatalf("arrival %d differs between identical runs", i)
		}
	}
}
