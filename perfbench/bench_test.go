package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile mirrors the parts of BENCHMARK.json the code must agree
// with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %q (%s), code %q (%s)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	compare := func(kind string, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], code %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", bf.EndToEnd, endToEnd)
	compare("per_layer", bf.PerLayer, perLayer)
}

// smoke shrinks a workload so a traced run takes a few seconds. The
// shape checks only hold at the full sizes, so it turns them off.
func smoke(w spec) spec {
	if w.Live {
		w.Jobs = 200
	} else {
		w.Jobs = 300
	}
	w.MedianBatchMin, w.MedianBatchMax, w.MinBatches = 0, 0, 0
	w.MinRestored, w.MaxLateShare = 0, 0
	return w
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			seconds := 0.05
			if w.Live {
				seconds = 0.25
			}
			o := options{seed: 7, seconds: seconds, trace: true, workDir: t.TempDir()}
			res, err := runWorkload(smoke(w), o)
			if err != nil {
				t.Fatal(err)
			}
			for _, defs := range [][]metricDef{endToEnd, perLayer} {
				var buf bytes.Buffer
				if err := res.write(&buf, defs); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var out outcome
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
					t.Fatal(err)
				}
				if !out.Correct || out.Failed != 0 || len(out.Metrics) != len(defs) {
					t.Fatalf("outcome %+v\n%s", out, buf.String())
				}
			}
		})
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "trickle", "--seconds", "0"},
		{"--workload", "trickle", "--trace", "2"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 {
			t.Errorf("run(%q) succeeded", args)
		}
	}
}
