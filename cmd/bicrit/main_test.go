package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"bicriteria"
)

// writeScenario saves a scenario into a temp file and returns the path.
func writeScenario(t *testing.T, s bicriteria.Scenario) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := bicriteria.SaveScenario(path, s); err != nil {
		t.Fatal(err)
	}
	return path
}

// golden reads a pinned golden file from testdata.
func golden(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRunMatchesClusterGolden pins the single-topology report bytes
// (adaptive batching, combined objective, one reservation, noise).
func TestRunMatchesClusterGolden(t *testing.T) {
	path := writeScenario(t, bicriteria.Scenario{
		Seed:     5,
		Topology: bicriteria.TopologySingle,
		Clusters: []bicriteria.ScenarioCluster{{
			Machines:     32,
			Reservations: []bicriteria.ScenarioReservation{{Procs: 8, Start: 10, End: 30}},
		}},
		Workload:  bicriteria.ScenarioWorkload{Kind: "mixed", Jobs: 60},
		Arrivals:  bicriteria.ScenarioArrivals{Rate: 3},
		Batch:     bicriteria.ScenarioBatch{Policy: "adaptive"},
		Objective: bicriteria.ScenarioObjective{Kind: "combined"},
		Noise:     0.2,
	})
	var buf bytes.Buffer
	if err := runCmd([]string{"-v", path}, &buf); err != nil {
		t.Fatal(err)
	}
	want := golden(t, "cluster/report.golden")
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("bicrit run drifted from the cluster golden\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestRunMatchesClusterFaultsGolden does the same for the faulted
// cluster golden. The fault seed is pinned explicitly: the golden was
// recorded with fault seed = stream seed, while a scenario without one
// derives seed^scenario.FaultSeedSalt.
func TestRunMatchesClusterFaultsGolden(t *testing.T) {
	path := writeScenario(t, bicriteria.Scenario{
		Seed:     3,
		Topology: bicriteria.TopologySingle,
		Clusters: []bicriteria.ScenarioCluster{{Machines: 16}},
		Workload: bicriteria.ScenarioWorkload{Kind: "mixed", Jobs: 80},
		Arrivals: bicriteria.ScenarioArrivals{Rate: 8},
		Faults: &bicriteria.ScenarioFaults{
			Seed:   3,
			MTBF:   10,
			Repair: 4,
			Replan: "checkpoint",
		},
	})
	var buf bytes.Buffer
	if err := runCmd([]string{"-v", path}, &buf); err != nil {
		t.Fatal(err)
	}
	want := golden(t, "cluster/report_faults.golden")
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("bicrit run drifted from the faulted cluster golden\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// checkGridGoldens runs a grid scenario with JSON and CSV exports and
// compares the text report and both exports with the
// testdata/grid/<prefix>{.golden,.json.golden,.csv.golden} files.
func checkGridGoldens(t *testing.T, scn bicriteria.Scenario, prefix string) {
	t.Helper()
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "report.json")
	csvPath := filepath.Join(dir, "clusters.csv")
	var buf bytes.Buffer
	if err := runCmd([]string{"-json", jsonPath, "-csv", csvPath, writeScenario(t, scn)}, &buf); err != nil {
		t.Fatal(err)
	}
	if want := golden(t, "grid/"+prefix+".golden"); !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("text report drifted from the %s grid golden\n--- got ---\n%s\n--- want ---\n%s", prefix, buf.Bytes(), want)
	}
	for _, export := range []struct{ path, golden string }{
		{jsonPath, prefix + ".json.golden"},
		{csvPath, prefix + ".csv.golden"},
	} {
		got, err := os.ReadFile(export.path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, golden(t, "grid/"+export.golden)) {
			t.Fatalf("export drifted from grid/%s", export.golden)
		}
	}
}

// TestRunMatchesGridGoldens pins the grid equivalence for all three
// artifacts: text report, JSON export and CSV export.
func TestRunMatchesGridGoldens(t *testing.T) {
	checkGridGoldens(t, bicriteria.Scenario{
		Seed:     2,
		Topology: bicriteria.TopologyGrid,
		Clusters: []bicriteria.ScenarioCluster{{Machines: 16}, {Machines: 8}, {Machines: 8}},
		Workload: bicriteria.ScenarioWorkload{Kind: "mixed", Jobs: 60},
		Arrivals: bicriteria.ScenarioArrivals{Rate: 5, Interarrival: "exponential"},
		Routing:  bicriteria.ScenarioRouting{Policy: "least-backlog", AdmitBacklog: 30},
		Noise:    0.2,
	}, "report")
}

// TestRunMatchesGridFaultsGolden pins the faulted grid report (node
// crashes plus whole-shard outages) and its exports. As for the faulted
// cluster golden, the fault seed is pinned to the stream seed.
func TestRunMatchesGridFaultsGolden(t *testing.T) {
	checkGridGoldens(t, bicriteria.Scenario{
		Seed:     2,
		Topology: bicriteria.TopologyGrid,
		Clusters: []bicriteria.ScenarioCluster{{Machines: 16}, {Machines: 8}, {Machines: 8}},
		Workload: bicriteria.ScenarioWorkload{Kind: "mixed", Jobs: 100},
		Arrivals: bicriteria.ScenarioArrivals{Rate: 8},
		Faults: &bicriteria.ScenarioFaults{
			Seed:        2,
			MTBF:        15,
			Repair:      5,
			ShardMTBF:   60,
			ShardRepair: 15,
		},
	}, "report_faults")
}

// TestGoldenCSVFaultColumns pins the CSV column contract: fault metrics
// columns appear exactly when a fault plan is active.
func TestGoldenCSVFaultColumns(t *testing.T) {
	if bytes.Contains(golden(t, "grid/report.csv.golden"), []byte("killed")) {
		t.Fatal("zero-fault CSV contains fault columns")
	}
	faulted := golden(t, "grid/report_faults.csv.golden")
	for _, col := range []string{"killed", "resubmitted", "migrated", "recovered", "lost"} {
		if !bytes.Contains(faulted, []byte(col)) {
			t.Fatalf("faulted CSV lacks the %s column", col)
		}
	}
}

// genScenario writes a scenario file with `bicrit gen args` and returns
// its path.
func genScenario(t *testing.T, args ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scn.json")
	if err := genCmd(append(args, "-o", path), &bytes.Buffer{}); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return path
}

// TestGoldenGenRunClusterReport pins the documented replacement of the
// old bicrit-cluster flags: gen writes the stream, the reservation is
// added to the file, and run reproduces the cluster golden.
func TestGoldenGenRunClusterReport(t *testing.T) {
	path := genScenario(t, "-clusters", "32", "-n", "60", "-rate", "3", "-seed", "5", "-noise", "0.2",
		"-batch", "adaptive", "-objective", "combined")
	scn, err := bicriteria.LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	scn.Clusters[0].Reservations = []bicriteria.ScenarioReservation{{Procs: 8, Start: 10, End: 30}}
	if err := bicriteria.SaveScenario(path, scn); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runCmd([]string{"-v", path}, &buf); err != nil {
		t.Fatal(err)
	}
	if want := golden(t, "cluster/report.golden"); !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("gen + run drifted from the cluster golden\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestGoldenGenRunClusterFaultsReport pins the replacement of an old
// faulted bicrit-cluster run: -fault-seed set to the stream seed
// reproduces the faulted cluster golden, fault metrics included.
func TestGoldenGenRunClusterFaultsReport(t *testing.T) {
	path := genScenario(t, "-clusters", "16", "-n", "80", "-rate", "8", "-seed", "3",
		"-fault-mtbf", "10", "-fault-repair", "4", "-replan", "checkpoint", "-fault-seed", "3")
	var buf bytes.Buffer
	if err := runCmd([]string{"-v", path}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	if !bytes.Contains(out, []byte("fault injection")) || !bytes.Contains(out, []byte("kills")) {
		t.Fatalf("faulted report lacks the fault metrics section:\n%s", out)
	}
	if want := golden(t, "cluster/report_faults.golden"); !bytes.Equal(out, want) {
		t.Fatalf("gen + run drifted from the faulted cluster golden\n--- got ---\n%s\n--- want ---\n%s", out, want)
	}
}

// TestGoldenGenRunGridReport pins the replacement of the old bicrit-grid
// flags: gen + run -json -csv reproduce all three grid goldens.
func TestGoldenGenRunGridReport(t *testing.T) {
	path := genScenario(t, "-clusters", "16,8,8", "-n", "60", "-rate", "5", "-seed", "2",
		"-noise", "0.2", "-admit", "30", "-routing", "least-backlog")
	scn, err := bicriteria.LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	checkGridGoldens(t, scn, "report")
}

// TestGoldenRunTraceReplay replays an SWF trace through arrivals.trace.
func TestGoldenRunTraceReplay(t *testing.T) {
	records := []bicriteria.TraceRecord{
		{JobID: 1, Submit: 0, Run: 10, Procs: 4, ReqProcs: 4, ReqTime: 12, Status: 1},
		{JobID: 2, Submit: 2, Run: 6, Procs: 2, ReqProcs: 2, ReqTime: 8, Status: 1},
		{JobID: 3, Submit: 15, Run: 4, Procs: 8, ReqProcs: 8, ReqTime: 5, Status: 1},
	}
	trace := filepath.Join(t.TempDir(), "jobs.swf")
	if err := writeFile(trace, func(w io.Writer) error { return bicriteria.WriteTrace(w, records) }); err != nil {
		t.Fatal(err)
	}
	path := writeScenario(t, bicriteria.Scenario{
		Seed:     1,
		Topology: bicriteria.TopologySingle,
		Clusters: []bicriteria.ScenarioCluster{{Machines: 16}},
		Arrivals: bicriteria.ScenarioArrivals{Trace: trace},
	})
	var buf bytes.Buffer
	if err := runCmd([]string{path}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "replayed 3 jobs") {
		t.Fatalf("trace replay output missing job count:\n%s", buf.String())
	}
}

// checkSequentialMatchesConcurrent pins the determinism contract at
// the CLI: the concurrent replay of scn prints the same bytes as
// -sequential, verbose lines included.
func checkSequentialMatchesConcurrent(t *testing.T, scn bicriteria.Scenario) {
	t.Helper()
	path := writeScenario(t, scn)
	var concurrent, sequential bytes.Buffer
	if err := runCmd([]string{"-v", path}, &concurrent); err != nil {
		t.Fatal(err)
	}
	if err := runCmd([]string{"-v", "-sequential", path}, &sequential); err != nil {
		t.Fatal(err)
	}
	if concurrent.String() != sequential.String() {
		t.Fatalf("concurrent and sequential replays differ:\n--- concurrent ---\n%s--- sequential ---\n%s",
			concurrent.String(), sequential.String())
	}
}

// TestGoldenRunClusterSequentialMatchesConcurrent checks a single
// cluster with a reservation and the combined objective.
func TestGoldenRunClusterSequentialMatchesConcurrent(t *testing.T) {
	checkSequentialMatchesConcurrent(t, bicriteria.Scenario{
		Seed:     1,
		Topology: bicriteria.TopologySingle,
		Clusters: []bicriteria.ScenarioCluster{{
			Machines:     16,
			Reservations: []bicriteria.ScenarioReservation{{Procs: 4, Start: 5, End: 20}},
		}},
		Workload:  bicriteria.ScenarioWorkload{Kind: "mixed", Jobs: 40},
		Arrivals:  bicriteria.ScenarioArrivals{Rate: 4, Burst: 5},
		Objective: bicriteria.ScenarioObjective{Kind: "combined", Alpha: 0.4},
		Noise:     0.25,
	})
}

// TestGoldenRunGridSequentialMatchesConcurrent checks a three-shard
// grid with least-backlog routing and admission control.
func TestGoldenRunGridSequentialMatchesConcurrent(t *testing.T) {
	checkSequentialMatchesConcurrent(t, bicriteria.Scenario{
		Seed:     1,
		Topology: bicriteria.TopologyGrid,
		Clusters: []bicriteria.ScenarioCluster{{Machines: 16}, {Machines: 8}, {Machines: 8}},
		Workload: bicriteria.ScenarioWorkload{Kind: "mixed", Jobs: 40},
		Arrivals: bicriteria.ScenarioArrivals{Rate: 5, Burst: 4},
		Routing:  bicriteria.ScenarioRouting{Policy: "least-backlog", AdmitBacklog: 30},
		Noise:    0.2,
	})
}

// TestRunJSONAndCSVExports checks the shape of the grid exports.
func TestRunJSONAndCSVExports(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "report.json")
	csvPath := filepath.Join(dir, "clusters.csv")
	path := writeScenario(t, bicriteria.Scenario{
		Seed:     1,
		Topology: bicriteria.TopologyGrid,
		Clusters: []bicriteria.ScenarioCluster{{Machines: 16}, {Machines: 8}},
		Workload: bicriteria.ScenarioWorkload{Kind: "mixed", Jobs: 25},
		Arrivals: bicriteria.ScenarioArrivals{Rate: 4},
		Routing:  bicriteria.ScenarioRouting{Policy: "moldability"},
	})
	if err := runCmd([]string{"-json", jsonPath, "-csv", csvPath, path}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Policy  string `json:"policy"`
		Metrics struct {
			Jobs int `json:"Jobs"`
		} `json:"metrics"`
		Decisions []struct {
			JobID int `json:"JobID"`
		} `json:"decisions"`
	}
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("bad JSON report: %v", err)
	}
	if report.Policy != "moldability" || report.Metrics.Jobs != 25 || len(report.Decisions) != 25 {
		t.Fatalf("unexpected JSON report: policy=%q jobs=%d decisions=%d",
			report.Policy, report.Metrics.Jobs, len(report.Decisions))
	}
	f, err := os.Open(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	records, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 || records[0][0] != "cluster" || records[1][0] != "0" || records[2][0] != "1" {
		t.Fatalf("unexpected CSV rows (want header + two clusters): %v", records)
	}
}

// TestGenRunPipeline generates a scenario file with `bicrit gen` and
// replays it with `bicrit run`.
func TestGenRunPipeline(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "scn.json")
	var genOut bytes.Buffer
	if err := genCmd([]string{"-topology", "grid", "-clusters", "16,8", "-n", "25",
		"-rate", "5", "-seed", "4", "-noise", "0.1", "-o", path}, &genOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(genOut.String(), "wrote grid scenario") {
		t.Fatalf("unexpected gen output: %s", genOut.String())
	}
	var runOut bytes.Buffer
	if err := runCmd([]string{path}, &runOut); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"routed 25 jobs", "grid makespan", "per-cluster:"} {
		if !strings.Contains(runOut.String(), want) {
			t.Fatalf("missing %q in run output:\n%s", want, runOut.String())
		}
	}
	// Determinism: the same scenario file replays identically.
	var again bytes.Buffer
	if err := runCmd([]string{path}, &again); err != nil {
		t.Fatal(err)
	}
	if runOut.String() != again.String() {
		t.Fatal("two runs of one scenario file differ")
	}
}

// genRun writes a scenario with `bicrit gen args`, replays it with
// `bicrit run` and checks that the report contains every want string.
func genRun(t *testing.T, args []string, want ...string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scn.json")
	if err := genCmd(append(args, "-o", path), &bytes.Buffer{}); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	var buf bytes.Buffer
	if err := runCmd([]string{path}, &buf); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	for _, w := range want {
		if !strings.Contains(buf.String(), w) {
			t.Fatalf("%v: missing %q in output:\n%s", args, w, buf.String())
		}
	}
}

// TestGenRunBatchPolicies replays a generated single-cluster stream
// under every batching policy.
func TestGenRunBatchPolicies(t *testing.T) {
	for _, batch := range []string{"idle", "interval", "adaptive"} {
		genRun(t, []string{"-clusters", "16", "-n", "30", "-rate", "3", "-batch", batch, "-noise", "0.2"},
			"realized makespan", "max flow", "mean stretch", "utilization", "portfolio wins:")
	}
}

// TestGenRunRoutingPolicies replays a generated grid stream under every
// routing policy.
func TestGenRunRoutingPolicies(t *testing.T) {
	for _, routing := range []string{"round-robin", "least-backlog", "lower-bound", "moldability"} {
		genRun(t, []string{"-clusters", "16,8", "-n", "30", "-rate", "4", "-routing", routing, "-noise", "0.2"},
			"grid makespan", "stretch p50/p95/p99", "bounded slowdown", "per-cluster:", "cluster 0", "cluster 1")
	}
}

// TestGenRunHeavyTailedArrivals replays grid streams drawn from the
// heavy-tailed inter-arrival laws with lognormal runtime scaling.
func TestGenRunHeavyTailedArrivals(t *testing.T) {
	for _, law := range []string{"lognormal", "weibull"} {
		genRun(t, []string{"-clusters", "8,8", "-n", "25", "-arrival", law,
			"-runtime-tail", "lognormal", "-routing", "round-robin"}, "routed 25 jobs", "grid makespan")
	}
}

// TestParseSizes pins the comma-separated count parser shared by gen's
// -clusters and exp's -tasks.
func TestParseSizes(t *testing.T) {
	sizes, err := parseSizes(" 64, 32 ,16 ")
	if err != nil || fmt.Sprint(sizes) != "[64 32 16]" {
		t.Fatalf("parseSizes = %v, %v", sizes, err)
	}
	for _, bad := range []string{"", " , ", "16,zero", "-4", "0"} {
		if _, err := parseSizes(bad); err == nil {
			t.Fatalf("parseSizes(%q) accepted", bad)
		}
	}
}

// TestGenRejectsBadFlags pins the eager validation of generated files.
func TestGenRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-clusters", ""},
		{"-clusters", "16,zero"},
		{"-kind", "nonsense"},
		{"-rate", "0"},
		{"-batch", "cron"},
		{"-objective", "latency"},
		{"-routing", "dice", "-clusters", "16,8"},
		{"-noise", "1.5"},
	} {
		if err := genCmd(args, &bytes.Buffer{}); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// TestGenRejectsBadClusterFlags pins the single-cluster rejections: bad
// stream and batching flags fail in gen, and a reservation the cluster
// cannot hold (set in the file, as gen has no flag for it) fails in run.
func TestGenRejectsBadClusterFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-batch", "nope"},
		{"-objective", "nope"},
		{"-kind", "nope"},
		{"-rate", "0"},
		{"-noise", "1.5"},
	} {
		if err := genCmd(append(args, "-clusters", "16"), &bytes.Buffer{}); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
	for res, valid := range map[string]bool{
		`{"procs": 4, "start": 10, "end": 30}`:  true,
		`{"procs": 32, "start": 10, "end": 30}`: false,
		`{"procs": 4, "start": 30, "end": 10}`:  false,
	} {
		path := filepath.Join(t.TempDir(), "scn.json")
		scn := `{"version": 1, "seed": 1, "topology": "single",
			"clusters": [{"machines": 16, "reservations": [` + res + `]}],
			"workload": {"jobs": 5}, "arrivals": {"rate": 1}}`
		if err := os.WriteFile(path, []byte(scn), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := runCmd([]string{path}, &bytes.Buffer{}); (err == nil) != valid {
			t.Fatalf("reservation %s: valid=%v, got err %v", res, valid, err)
		}
	}
}

// TestGenRejectsBadGridFlags pins the grid rejections.
func TestGenRejectsBadGridFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-clusters", ""},
		{"-clusters", "16,zero"},
		{"-clusters", "-4"},
		{"-routing", "nonsense"},
		{"-kind", "nonsense"},
		{"-arrival", "zipf"},
		{"-batch", "nonsense"},
		{"-objective", "nonsense"},
		{"-noise", "2"},
		{"-admit", "-1"},
	} {
		if err := genCmd(append([]string{"-topology", "grid", "-clusters", "16,8"}, append(args, "-n", "5")...), &bytes.Buffer{}); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// TestGenServeConfigValidatesFlags pins the service scenarios gen
// writes: bad clusters, routing, batching or objective fail, and a good
// one compiles to the serve configuration the flags describe.
func TestGenServeConfigValidatesFlags(t *testing.T) {
	service := []string{"-clusters", "16,8", "-speedup", "1"}
	for _, args := range [][]string{
		{"-clusters", "16,x"},
		{"-routing", "nonsense"},
		{"-batch", "nonsense"},
		{"-objective", "nonsense"},
	} {
		if err := genCmd(append(append([]string(nil), service...), args...), &bytes.Buffer{}); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
	path := filepath.Join(t.TempDir(), "scn.json")
	if err := genCmd(append(service, "-routing", "round-robin", "-batch", "adaptive",
		"-objective", "combined", "-noise", "0.1", "-admit", "30", "-o", path), &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	scn, err := bicriteria.LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := bicriteria.ScenarioServeConfig(scn)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Grid.Clusters) != 2 || cfg.Grid.Clusters[0].M != 16 || cfg.Grid.Clusters[1].M != 8 {
		t.Fatalf("bad cluster specs: %+v", cfg.Grid.Clusters)
	}
	if cfg.Grid.AdmitBacklog != 30 {
		t.Fatalf("router admit backlog %g, want 30", cfg.Grid.AdmitBacklog)
	}
}

// TestRunRejectsBadInput pins run's file handling.
func TestRunRejectsBadInput(t *testing.T) {
	if err := runCmd([]string{}, &bytes.Buffer{}); err == nil {
		t.Fatal("missing scenario argument accepted")
	}
	if err := runCmd([]string{filepath.Join(t.TempDir(), "absent.json")}, &bytes.Buffer{}); err == nil {
		t.Fatal("absent scenario file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"version": 1, "bogus": true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runCmd([]string{bad}, &bytes.Buffer{}); err == nil {
		t.Fatal("scenario with unknown fields accepted")
	}
}

// TestServeCmdSmokes boots `bicrit serve` on an ephemeral port from a
// scenario file with a service section, submits a job over HTTP and
// drains.
func TestServeCmdSmokes(t *testing.T) {
	path := writeScenario(t, bicriteria.Scenario{
		Name:     "serve-smoke",
		Seed:     1,
		Topology: bicriteria.TopologyGrid,
		Clusters: []bicriteria.ScenarioCluster{{Machines: 8}, {Machines: 4}},
		Workload: bicriteria.ScenarioWorkload{Jobs: 1},
		Arrivals: bicriteria.ScenarioArrivals{Rate: 1},
		Service:  &bicriteria.ScenarioService{Speedup: 1000},
	})
	bound := make(chan string, 1)
	stop := make(chan struct{})
	done := make(chan error, 1)
	var buf safeBuffer
	go func() {
		done <- serveCmd([]string{"-addr", "127.0.0.1:0", path}, &buf, bound, stop)
	}()
	var addr string
	select {
	case addr = <-bound:
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never bound")
	}
	base := "http://" + addr
	resp, err := http.Post(base+"/jobs", "application/json",
		strings.NewReader(`{"id": 1, "weight": 2, "times": [30, 18]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit returned %d", resp.StatusCode)
	}
	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drain never finished")
	}
	got := buf.String()
	for _, want := range []string{`scenario "serve-smoke"`, "draining...", "final report: 1 jobs"} {
		if !strings.Contains(got, want) {
			t.Fatalf("missing %q in output:\n%s", want, got)
		}
	}
}

// TestGenServeSubmitsAndDrains boots `bicrit serve` on a scenario
// written by `bicrit gen -speedup`, checks /healthz, submits jobs over
// HTTP, stops it and checks the drained report.
func TestGenServeSubmitsAndDrains(t *testing.T) {
	path := genScenario(t, "-clusters", "8,4", "-speedup", "1000")
	bound := make(chan string, 1)
	stop := make(chan struct{})
	done := make(chan error, 1)
	var buf safeBuffer
	go func() {
		done <- serveCmd([]string{"-addr", "127.0.0.1:0", path}, &buf, bound, stop)
	}()
	var addr string
	select {
	case addr = <-bound:
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never bound")
	}
	base := "http://" + addr
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz returned %d", resp.StatusCode)
	}
	for i := 0; i < 6; i++ {
		body, _ := json.Marshal(bicriteria.ServeJobSpec{ID: i, Times: []float64{10, 6}})
		resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d returned %d", i, resp.StatusCode)
		}
	}
	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drain never finished")
	}
	got := buf.String()
	for _, want := range []string{"listening on", "draining...", "final report: 6 jobs", "grid makespan", "cluster 0", "cluster 1"} {
		if !strings.Contains(got, want) {
			t.Fatalf("missing %q in output:\n%s", want, got)
		}
	}
}

// safeBuffer synchronizes writes from the serve goroutine with the
// test's final read.
type safeBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *safeBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *safeBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestGenFaultedServiceNeedsHorizon pins the review fix: a scenario with
// both fault and service sections is only written when it can actually
// be served, which needs an explicit fault horizon.
func TestGenFaultedServiceNeedsHorizon(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "scn.json")
	base := []string{"-clusters", "16,8", "-n", "40", "-rate", "5",
		"-fault-mtbf", "20", "-speedup", "60", "-o", path}
	if err := genCmd(base, &bytes.Buffer{}); err == nil {
		t.Fatal("faulted service scenario without a horizon accepted")
	}
	withHorizon := append(append([]string(nil), base...), "-fault-horizon", "500")
	if err := genCmd(withHorizon, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	scn, err := bicriteria.LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bicriteria.ScenarioServeConfig(scn); err != nil {
		t.Fatalf("generated scenario is not servable: %v", err)
	}
}
