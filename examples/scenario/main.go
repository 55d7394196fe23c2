// Command scenario demonstrates the Scenario API v2: one declarative,
// versioned spec that compiles to any layer of the stack.
//
// The program builds a grid scenario as a struct literal, compiles it,
// streams routing decisions and batch commits through an Observer while
// the replay runs (with a cancellable context), prints the unified
// report, and round-trips the spec through its JSON form — the same file
// format `bicrit run` consumes.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"bicriteria"
)

func main() {
	// One spec for the whole experiment: a three-shard grid, a bursty
	// mixed workload, adaptive batching, noise, and a pinch of faults.
	// Zero fields take their defaults; the seed names the experiment, so
	// set it explicitly.
	scn := bicriteria.Scenario{
		Name:     "quickstart-grid",
		Seed:     7,
		Clusters: []bicriteria.ScenarioCluster{{Machines: 32}, {Machines: 16}, {Machines: 16}},
		Workload: bicriteria.ScenarioWorkload{Kind: "mixed", Jobs: 80},
		Arrivals: bicriteria.ScenarioArrivals{Rate: 5, Burst: 4},
		Batch:    bicriteria.ScenarioBatch{Policy: "adaptive"},
		Routing:  bicriteria.ScenarioRouting{Policy: "least-backlog", AdmitBacklog: 40},
		Noise:    0.15,
		Faults:   &bicriteria.ScenarioFaults{MTBF: 40, Repair: 8},
	}

	// Compile fills in the version, infers the topology from the cluster
	// count (grid here), selects its engine and validates everything
	// eagerly: a bad spec dies now, with the exact field path, not
	// mid-replay.
	runner, err := bicriteria.Compile(scn)
	if err != nil {
		log.Fatal(err)
	}

	// The Observer streams events while the replay runs.
	migrations := 0
	runner.Observe(bicriteria.ScenarioObserver{
		Batch: func(shard int, br bicriteria.ClusterBatchReport) {
			if br.Index == 0 {
				fmt.Printf("shard %d committed its first batch (%d jobs, winner %s)\n",
					shard, len(br.Jobs), br.Winner)
			}
		},
		Migration: func(d bicriteria.GridDecision) { migrations++ },
	})

	// Run takes a context: cancel it and the replay aborts between
	// batches, no deadlock, errors.Is(err, context.Canceled).
	rep, err := runner.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmakespan %.2f  weighted completion %.2f  utilization %.1f%%  migrations %d\n\n",
		rep.Makespan(), rep.WeightedCompletion(), 100*rep.Utilization(), migrations)

	// The same spec round-trips through JSON — the file `bicrit run`
	// consumes.
	dir, err := os.MkdirTemp("", "scenario")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "scenario.json")
	if err := bicriteria.SaveScenario(path, scn); err != nil {
		log.Fatal(err)
	}
	loaded, err := bicriteria.LoadScenario(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("saved and reloaded scenario %q (version %d, topology %s)\n",
		loaded.Name, loaded.Version, loaded.Topology)
	fmt.Println("replay it anytime with: bicrit run", path)

	// Validation errors carry field paths.
	bad := scn
	bad.Clusters = append([]bicriteria.ScenarioCluster(nil), scn.Clusters...)
	bad.Clusters[2] = bicriteria.ScenarioCluster{Machines: -1}
	if _, err := bicriteria.Compile(bad); err != nil {
		fmt.Println("compile-time validation:", err)
	}
}
