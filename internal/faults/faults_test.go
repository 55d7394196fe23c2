package faults

import (
	"math"
	"reflect"
	"testing"

	"bicriteria/internal/moldable"
	"bicriteria/internal/online"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{
		Seed:           3,
		Horizon:        500,
		Clusters:       []int{16, 8},
		MTBF:           50,
		RepairMean:     10,
		CorrelatedMTBF: 200,
		CorrelatedSize: 4,
		ShardMTBF:      400,
	}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two generations with the same config differ")
	}
	if len(a.Nodes) == 0 {
		t.Fatal("hostile config generated no node outages")
	}
	cfg.Seed = 4
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical plans")
	}
	if err := a.Validate([]int{16, 8}); err != nil {
		t.Fatalf("generated plan fails its own validation: %v", err)
	}
	// Canonical order: node outages sorted by start time.
	for i := 1; i < len(a.Nodes); i++ {
		if a.Nodes[i].Start < a.Nodes[i-1].Start {
			t.Fatalf("node outages out of order at %d", i)
		}
	}
	// Every window is inside the model's bounds.
	for _, n := range a.Nodes {
		if n.Start < 0 || n.Start >= cfg.Horizon || n.End <= n.Start {
			t.Fatalf("bad node window %+v", n)
		}
	}
}

func TestGenerateZeroConfigIsEmpty(t *testing.T) {
	plan, err := Generate(Config{Clusters: []int{8}})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Empty() {
		t.Fatalf("zero MTBFs generated %d node and %d shard outages", len(plan.Nodes), len(plan.Shards))
	}
	var nilPlan *Plan
	if !nilPlan.Empty() {
		t.Fatal("nil plan is not empty")
	}
	if err := nilPlan.Validate([]int{4}); err != nil {
		t.Fatalf("nil plan fails validation: %v", err)
	}
	if nilPlan.ClusterWindows(0, 4) != nil {
		t.Fatal("nil plan has cluster windows")
	}
}

func TestGenerateValidation(t *testing.T) {
	cases := []Config{
		{},                                        // no clusters
		{Clusters: []int{0}},                      // empty cluster
		{Clusters: []int{4}, MTBF: 10},            // MTBF without horizon
		{Clusters: []int{4}, MTBF: -1},            // negative MTBF
		{Clusters: []int{4}, MTBF: math.NaN()},    // NaN
		{Clusters: []int{4}, CorrelatedSize: -2},  // negative group
		{Clusters: []int{4}, Shape: math.Inf(1)},  // infinite shape
		{Clusters: []int{4}, ShardMTBF: 5},        // shard MTBF without horizon
		{Clusters: []int{4}, RepairSigma: -0.5},   // negative sigma
		{Clusters: []int{4}, Horizon: math.NaN()}, // NaN horizon
	}
	for i, cfg := range cases {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("case %d: invalid config %+v accepted", i, cfg)
		}
	}
}

func TestPlanValidateRejectsOutOfRange(t *testing.T) {
	cases := []Plan{
		{Nodes: []NodeOutage{{Cluster: 2, Proc: 0, Start: 1, End: 2}}},  // bad cluster
		{Nodes: []NodeOutage{{Cluster: 0, Proc: 9, Start: 1, End: 2}}},  // bad proc
		{Nodes: []NodeOutage{{Cluster: 0, Proc: 0, Start: 2, End: 2}}},  // empty span
		{Nodes: []NodeOutage{{Cluster: 0, Proc: 0, Start: -1, End: 2}}}, // negative start
		{Shards: []ShardOutage{{Cluster: 5, Start: 1, End: 2}}},         // bad shard cluster
		{Shards: []ShardOutage{{Cluster: 0, Start: 3, End: 1}}},         // reversed span
	}
	for i := range cases {
		if err := cases[i].Validate([]int{4, 2}); err == nil {
			t.Errorf("case %d: invalid plan accepted", i)
		}
	}
}

func TestClusterWindowsExpandShardOutages(t *testing.T) {
	plan := &Plan{
		Nodes: []NodeOutage{
			{Cluster: 0, Proc: 2, Start: 10, End: 20},
			{Cluster: 1, Proc: 0, Start: 5, End: 6},
		},
		Shards: []ShardOutage{{Cluster: 0, Start: 30, End: 40}},
	}
	wins := plan.ClusterWindows(0, 4)
	if len(wins) != 2 {
		t.Fatalf("want 2 windows for cluster 0, got %d", len(wins))
	}
	if !reflect.DeepEqual(wins[0].Procs, []int{2}) || wins[0].Start != 10 {
		t.Fatalf("unexpected node window %+v", wins[0])
	}
	if !reflect.DeepEqual(wins[1].Procs, []int{0, 1, 2, 3}) || wins[1].Start != 30 {
		t.Fatalf("shard outage not expanded to the whole machine: %+v", wins[1])
	}
	if got := plan.ClusterWindows(1, 2); len(got) != 1 || got[0].Procs[0] != 0 {
		t.Fatalf("unexpected cluster 1 windows %+v", got)
	}
	if got := plan.ShardWindows(0); len(got) != 1 || got[0].Start != 30 {
		t.Fatalf("unexpected shard windows %+v", got)
	}
	if got := plan.ShardWindows(1); got != nil {
		t.Fatalf("cluster 1 has shard windows %+v", got)
	}
}

func TestCorrelatedFailuresShareWindows(t *testing.T) {
	plan, err := Generate(Config{
		Seed:           1,
		Horizon:        1000,
		Clusters:       []int{8},
		CorrelatedMTBF: 100,
		CorrelatedSize: 3,
		RepairMean:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Nodes) == 0 || len(plan.Nodes)%3 != 0 {
		t.Fatalf("correlated groups of 3 should give a multiple of 3 outages, got %d", len(plan.Nodes))
	}
	// Group events share one [Start, End) across their member nodes.
	byWindow := make(map[[2]float64]int)
	for _, n := range plan.Nodes {
		byWindow[[2]float64{n.Start, n.End}]++
	}
	for w, count := range byWindow {
		if count != 3 {
			t.Fatalf("correlated window %v hits %d nodes, want 3", w, count)
		}
	}
}

func TestDowntime(t *testing.T) {
	plan := &Plan{
		Nodes:  []NodeOutage{{Cluster: 0, Proc: 1, Start: 10, End: 20}},
		Shards: []ShardOutage{{Cluster: 1, Start: 5, End: 15}},
	}
	sizes := []int{4, 2}
	if got := plan.Downtime(sizes, 100); got != 10+2*10 {
		t.Fatalf("downtime = %g, want 30", got)
	}
	// Clipped at the horizon.
	if got := plan.Downtime(sizes, 15); got != 5+2*10 {
		t.Fatalf("clipped downtime = %g, want 25", got)
	}
	var nilPlan *Plan
	if nilPlan.Downtime(sizes, 100) != 0 {
		t.Fatal("nil plan has downtime")
	}
}

func TestSuggestHorizon(t *testing.T) {
	// Releases out of order: the horizon starts from the latest one, not
	// the last in the stream. Minimum work 120 + 200 = 320.
	jobs := []online.Job{
		{Task: moldable.Sequential(0, 1, 120), Release: 50},
		{Task: moldable.Sequential(1, 1, 200), Release: 10},
	}
	h := SuggestHorizon(jobs, 16)
	if h <= 50 {
		t.Fatalf("horizon %g does not extend past the last release", h)
	}
	if h != 50+4*320/16.0+1 {
		t.Fatalf("unexpected horizon %g", h)
	}
	if SuggestHorizon(jobs, 0) <= 0 {
		t.Fatal("degenerate processor count gave a non-positive horizon")
	}
	if h := SuggestHorizon(nil, 16); h != 1 {
		t.Fatalf("empty stream horizon %g, want 1", h)
	}
}
