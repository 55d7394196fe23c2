// Command bicrit is the one command-line tool of the bicriteria library.
// Its scenario subcommands consume scenario files — the single
// declarative spec of the library — and drive every layer of the stack
// with them; its instance subcommands work on off-line workload files.
//
// Scenario subcommands:
//
//   - gen: write a scenario file from flags. Anything gen has no flag
//     for (cluster reservations, submission queue shape, ...) is set by
//     editing the file.
//
//     bicrit gen -topology grid -clusters 64,32,16 -n 300 -rate 6 -o scenario.json
//
//   - run: replay a scenario offline through its compiled engine (the
//     cluster engine for single topology, the grid federation for grid)
//     and print the standard report, optionally with JSON/CSV exports.
//
//     bicrit run -v scenario.json
//     bicrit run -json report.json -csv clusters.csv scenario.json
//
//   - explain: print one job's flight-recorder timeline — every
//     scheduling decision that touched the job, with per-shard routing
//     verdicts, the winning portfolio algorithm, the chosen allotment and
//     the batch lower bound. Reads a recorded trace
//     (`bicrit run -flight trace.jsonl`) or replays a scenario file.
//
//     bicrit explain trace.jsonl 42
//     bicrit explain -sequential scenario.json 42
//
//   - serve: run the scenario as a live scheduler service (the serve
//     layer's HTTP API), using the scenario's optional "service" section
//     for pacing, rate limiting and snapshots.
//
//     bicrit serve -addr :8080 scenario.json
//
//   - load: the load generator; replay an arrival stream against a
//     running service over HTTP, paced by the stream's gaps.
//
//     bicrit load -target http://localhost:8080 -in stream.json -speedup 60 -drain
//
// Instance and experiment subcommands:
//
//   - workload: generate an off-line instance (the paper's section 4.1
//     models) or, with -arrivals, an on-line arrival stream.
//
//     bicrit workload -kind mixed -m 32 -n 40 -o w.json
//
//   - sched: schedule a workload file with DEMT or a baseline and print
//     the metrics against the lower bounds, a Gantt chart or the
//     assignments.
//
//     bicrit sched -i w.json -algo demt -gantt
//
//   - lb: compute the makespan and minsum lower bounds of a workload file.
//
//     bicrit lb -i w.json -lp
//
//   - exp: reproduce the paper's figures 3-7 (aggregated ratio tables,
//     CSV) or run an ablation study.
//
//     bicrit exp -figure 6 -runs 40 -lp -csv figure6.csv
//
// Perf subcommands:
//
//   - bench: run the perf observatory's benchmark suite over every
//     instrumented hot path and record a versioned BENCH trajectory;
//     -compare diffs against a previous trajectory and -gate fails the
//     run on regressions (the CI perf gate).
//
//     bicrit bench -compare testdata/BENCH_baseline.json -gate 1.25
//
//   - top: live terminal dashboard polling a running service's
//     GET /metrics.prom — counter rates, queue depths and histogram
//     quantiles diffed between scrapes.
//
//     bicrit top -url http://127.0.0.1:8080/metrics.prom
//
// Scenario files are versioned JSON; unknown fields and versions are
// rejected at load time. See the README's "One scenario file, every
// layer" walkthrough.
package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"bicriteria"
)

func main() {
	if err := dispatch(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bicrit:", err)
		os.Exit(1)
	}
}

// subcommands lists every subcommand in help order.
var subcommands = []struct {
	name, help string
	run        func(args []string, out io.Writer) error
}{
	{"run", "replay a scenario file offline and print the report", runCmd},
	{"explain", "print one job's flight-recorder timeline (from a trace or scenario file)", explainCmd},
	{"serve", "run a scenario file as a live scheduler service", func(args []string, out io.Writer) error {
		return serveCmd(args, out, nil, nil)
	}},
	{"gen", "write a scenario file from flags", genCmd},
	{"bench", "run the hot-path benchmark suite; -compare/-gate diff and gate trajectories", benchCmd},
	{"top", "live terminal dashboard over a service's /metrics.prom", topCmd},
	{"sched", "schedule a workload file with DEMT or a baseline", schedCmd},
	{"lb", "compute the lower bounds of a workload file", lbCmd},
	{"exp", "reproduce the paper's figures or run an ablation study", expCmd},
	{"workload", "generate a workload file or an arrival stream", workloadCmd},
	{"load", "replay an arrival stream against a live service", loadCmd},
}

func dispatch(args []string) error {
	names := make([]string, len(subcommands))
	for i, c := range subcommands {
		names[i] = c.name
	}
	usage := "usage: bicrit <" + strings.Join(names, "|") + "> [flags]"
	if len(args) == 0 {
		return fmt.Errorf("%s — see 'bicrit <cmd> -h'", usage)
	}
	switch args[0] {
	case "-version", "--version", "version":
		fmt.Printf("bicrit %s (%s)\n", bicriteria.Version, runtime.Version())
		return nil
	case "-h", "-help", "--help", "help":
		fmt.Println(usage)
		for _, c := range subcommands {
			fmt.Printf("  %-9s%s\n", c.name, c.help)
		}
		fmt.Println("flags: -version prints the release and Go version")
		return nil
	}
	for _, c := range subcommands {
		if c.name == args[0] {
			return c.run(args[1:], os.Stdout)
		}
	}
	return fmt.Errorf("unknown subcommand %q (want one of %s)", args[0], strings.Join(names, ", "))
}
