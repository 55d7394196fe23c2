package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestExpQuickFigure(t *testing.T) {
	var buf bytes.Buffer
	csvPath := filepath.Join(t.TempDir(), "fig.csv")
	err := expCmd([]string{
		"-figure", "4", "-m", "12", "-runs", "2", "-tasks", "6,10",
		"-algorithms", "demt,saf", "-csv", csvPath,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "highly-parallel") || !strings.Contains(out, "Makespan ratio") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "demt") {
		t.Fatalf("CSV missing demt rows")
	}
}

func TestExpCustomWorkload(t *testing.T) {
	var buf bytes.Buffer
	err := expCmd([]string{"-workload", "mixed", "-m", "10", "-runs", "1", "-tasks", "5", "-algorithms", "demt"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mixed") {
		t.Fatalf("missing workload name in output")
	}
}

func TestExpErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := expCmd([]string{"-figure", "12"}, &buf); err == nil {
		t.Fatalf("unknown figure must fail")
	}
	if err := expCmd([]string{"-workload", "bogus"}, &buf); err == nil {
		t.Fatalf("unknown workload must fail")
	}
	if err := expCmd([]string{"-tasks", "abc"}, &buf); err == nil {
		t.Fatalf("bad task list must fail")
	}
	if err := expCmd([]string{"-tasks", "0"}, &buf); err == nil {
		t.Fatalf("non-positive task count must fail")
	}
	if err := expCmd([]string{"-algorithms", "bogus"}, &buf); err == nil {
		t.Fatalf("unknown algorithm must fail")
	}
}

// TestExpParsesTaskList pins -tasks parsing: spaces around the counts
// are trimmed, and a list without counts fails.
func TestExpParsesTaskList(t *testing.T) {
	var buf bytes.Buffer
	if err := expCmd([]string{"-m", "10", "-runs", "1", "-tasks", " 5, 6 ,8 ", "-algorithms", "demt"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "tasks=[5 6 8]") {
		t.Fatalf("task list not parsed:\n%s", buf.String())
	}
	if err := expCmd([]string{"-tasks", " , "}, &bytes.Buffer{}); err == nil {
		t.Fatal("empty task list accepted")
	}
}

func TestExpAblations(t *testing.T) {
	for _, kind := range []string{"selection", "compaction", "bound"} {
		var buf bytes.Buffer
		err := expCmd([]string{"-ablation", kind, "-workload", "cirne", "-m", "10", "-ablation-n", "8", "-runs", "2"}, &buf)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !strings.Contains(buf.String(), "Ablation") {
			t.Fatalf("%s: missing table:\n%s", kind, buf.String())
		}
	}
	var buf bytes.Buffer
	if err := expCmd([]string{"-ablation", "bogus"}, &buf); err == nil {
		t.Fatalf("unknown ablation must fail")
	}
	if err := expCmd([]string{"-ablation", "bound", "-workload", "bogus"}, &buf); err == nil {
		t.Fatalf("unknown workload with ablation must fail")
	}
}
