package scenario

import (
	"errors"
	"strings"
	"testing"
)

// base returns a minimal valid grid scenario for mutation tests.
func base() Scenario {
	return Scenario{
		Version:  Version,
		Seed:     1,
		Topology: TopologyGrid,
		Clusters: []Cluster{{Machines: 16}, {Machines: 8}},
		Workload: Workload{Kind: "mixed", Jobs: 20},
		Arrivals: Arrivals{Rate: 4},
	}
}

// TestValidateFieldPaths pins that every eager check fails with a
// *ValidationError naming the offending field path.
func TestValidateFieldPaths(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Scenario)
		field  string
	}{
		{"version", func(s *Scenario) { s.Version = 99 }, "version"},
		{"topology", func(s *Scenario) { s.Topology = "ring" }, "topology"},
		{"single needs one cluster", func(s *Scenario) { s.Topology = TopologySingle }, "topology"},
		{"no clusters", func(s *Scenario) { s.Clusters = nil }, "clusters"},
		{"machines", func(s *Scenario) { s.Clusters[1].Machines = 0 }, "clusters[1].machines"},
		{"single cluster machines", func(s *Scenario) {
			s.Topology, s.Clusters = TopologySingle, []Cluster{{Machines: 0}}
		}, "clusters[0].machines"},
		{"reserved cluster without machines", func(s *Scenario) {
			s.Clusters = append(s.Clusters, Cluster{Reservations: []Reservation{{Procs: 4, Start: 50, End: 120}}})
		}, "clusters[2].machines"},
		{"reservation procs", func(s *Scenario) {
			s.Clusters[0].Reservations = []Reservation{{Procs: 0, Start: 0, End: 10}}
		}, "clusters[0].reservations[0].procs"},
		{"reservation window", func(s *Scenario) {
			s.Clusters[0].Reservations = []Reservation{{Procs: 2, Start: 10, End: 5}}
		}, "clusters[0].reservations[0]"},
		{"workload kind", func(s *Scenario) { s.Workload.Kind = "nonsense" }, "workload.kind"},
		{"jobs", func(s *Scenario) { s.Workload.Jobs = 0 }, "workload.jobs"},
		{"rate", func(s *Scenario) { s.Arrivals.Rate = 0 }, "arrivals.rate"},
		{"burst", func(s *Scenario) { s.Arrivals.Burst = -1 }, "arrivals.burst"},
		{"interarrival", func(s *Scenario) { s.Arrivals.Interarrival = "zipf" }, "arrivals.interarrival"},
		{"runtime tail", func(s *Scenario) { s.Arrivals.RuntimeTail = "zipf" }, "arrivals.runtime_tail"},
		{"file and trace", func(s *Scenario) { s.Arrivals.File, s.Arrivals.Trace = "a", "b" }, "arrivals"},
		{"batch policy", func(s *Scenario) { s.Batch.Policy = "cron" }, "batch.policy"},
		{"interval", func(s *Scenario) { s.Batch.Interval = -1 }, "batch.interval"},
		{"objective", func(s *Scenario) { s.Objective.Kind = "latency" }, "objective.kind"},
		{"alpha", func(s *Scenario) { s.Objective.Alpha = 2 }, "objective.alpha"},
		{"routing", func(s *Scenario) { s.Routing.Policy = "random" }, "routing.policy"},
		{"admit backlog", func(s *Scenario) { s.Routing.AdmitBacklog = -1 }, "routing.admit_backlog"},
		{"noise", func(s *Scenario) { s.Noise = 1.5 }, "noise"},
		{"fault mtbf", func(s *Scenario) { s.Faults = &Faults{MTBF: -1} }, "faults.mtbf"},
		{"replan", func(s *Scenario) { s.Faults = &Faults{Replan: "undo"} }, "faults.replan"},
		{"checkpoint credit", func(s *Scenario) { s.Faults = &Faults{CheckpointCredit: 2} }, "faults.checkpoint_credit"},
		{"service speedup", func(s *Scenario) { s.Service = &Service{Speedup: -1} }, "service.speedup"},
		{"service queue", func(s *Scenario) { s.Service = &Service{QueueDepth: -1} }, "service.queue_depth"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.mutate(&s)
			err := s.Validate()
			if err == nil {
				t.Fatal("bad scenario validated")
			}
			var verr *ValidationError
			if !errors.As(err, &verr) {
				t.Fatalf("error is not a *ValidationError: %v", err)
			}
			if verr.Field != tc.field {
				t.Fatalf("field path %q, want %q (err: %v)", verr.Field, tc.field, err)
			}
		})
	}
}

// TestValidateAccepts pins that representative good scenarios pass.
func TestValidateAccepts(t *testing.T) {
	good := []Scenario{
		base(),
		{
			Version: Version, Seed: 3, Topology: TopologySingle,
			Clusters: []Cluster{{Machines: 32, Reservations: []Reservation{{Procs: 4, Start: 5, End: 25}}}},
			Workload: Workload{Kind: "cirne", Jobs: 10},
			Arrivals: Arrivals{Rate: 1, Burst: 4, Interarrival: "lognormal", RuntimeTail: "weibull"},
			Batch:    Batch{Policy: "adaptive"},
			Faults:   &Faults{MTBF: 20, Replan: "checkpoint", CheckpointCredit: 0.5},
			Service:  &Service{Speedup: 60, SubmitRate: 100},
		},
		{
			Version: Version, Topology: TopologyGrid,
			Clusters: []Cluster{{Machines: 8}},
			Arrivals: Arrivals{File: "stream.json"}, // replayed: no jobs/rate required
		},
	}
	for i, s := range good {
		if err := s.Validate(); err != nil {
			t.Fatalf("scenario %d rejected: %v", i, err)
		}
	}
}

// TestNormalizedDefaults pins the defaults a struct literal gets from
// Normalized (and so from Compile and WriteScenario): the current version
// and the topology inferred from the cluster count, while explicit values
// are kept.
func TestNormalizedDefaults(t *testing.T) {
	grid := Scenario{
		Seed:     7,
		Clusters: []Cluster{{Machines: 64, Reservations: []Reservation{{Procs: 8, Start: 10, End: 20}}}, {Machines: 32}},
		Workload: Workload{Kind: "mixed", Jobs: 50},
		Arrivals: Arrivals{Rate: 3, Burst: 2},
		Faults:   &Faults{MTBF: 30},
	}.Normalized()
	if grid.Version != Version {
		t.Fatalf("version %d", grid.Version)
	}
	if grid.Topology != TopologyGrid {
		t.Fatalf("two clusters should infer grid, got %q", grid.Topology)
	}
	if err := grid.Validate(); err != nil {
		t.Fatal(err)
	}

	single := Scenario{Clusters: []Cluster{{Machines: 16}}}.Normalized()
	if single.Topology != TopologySingle {
		t.Fatalf("one cluster should infer single, got %q", single.Topology)
	}
	forced := Scenario{Topology: TopologyGrid, Clusters: []Cluster{{Machines: 16}}}.Normalized()
	if forced.Topology != TopologyGrid {
		t.Fatalf("explicit topology overridden: %q", forced.Topology)
	}
	if pinned := (Scenario{Version: 99}).Normalized(); pinned.Version != 99 {
		t.Fatalf("explicit version overridden: %d", pinned.Version)
	}
}

// TestSubSeedDerivation pins the documented sub-seed derivation: the
// fault seed is Seed ^ FaultSeedSalt unless pinned explicitly.
func TestSubSeedDerivation(t *testing.T) {
	s := base()
	if got, want := s.faultSeed(), int64(1)^FaultSeedSalt; got != want {
		t.Fatalf("derived fault seed %d, want %d", got, want)
	}
	s.Faults = &Faults{Seed: 42}
	if got := s.faultSeed(); got != 42 {
		t.Fatalf("explicit fault seed %d, want 42", got)
	}
}

// TestValidationErrorRendering pins the "path: message" error shape.
func TestValidationErrorRendering(t *testing.T) {
	s := base()
	s.Clusters[1].Machines = -3
	err := s.Validate()
	if err == nil {
		t.Fatal("no error")
	}
	if !strings.HasPrefix(err.Error(), "clusters[1].machines: ") {
		t.Fatalf("unexpected rendering: %q", err.Error())
	}
}
