package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, the ones a user of the
// system sees. Every workload reports every one of them; README.md gives
// each workload's definition.
var endToEnd = []metricDef{
	{"jobs_per_s", "jobs/s"},
	{"visible_p50_s", "s"},
	{"visible_p99_s", "s"},
	{"drain_s", "s"},
	{"cmax_gap", "ratio"},
	{"minsum_gap", "ratio"},
	{"alloc_kb_per_job", "KiB/job"},
	{"setup_s", "s"},
}

// perLayer lists the metrics of a traced run. Seconds are per full
// replay unless the name says otherwise; a layer a workload does not
// exercise reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"serve.submit_p50_s", "s"},
		{"serve.submit_p99_s", "s"},
		{"serve.status_p50_s", "s"},
		{"serve.status_p99_s", "s"},
		{"serve.status_calls", "count"},
		{"serve.refresh_gap_p50_s", "s"},
		{"serve.replays", "count"},
		{"serve.replay_useful_ratio", "ratio"},
		{"serve.restore_s", "s"},
		{"loadgen.late_p99_s", "s"},
		{"loadgen.late_max_s", "s"},
		{"flight.rebuild_s", "s"},
		{"grid.route_s", "s"},
		{"cluster.batches", "count"},
		{"cluster.batch_jobs_p50", "jobs"},
		{"cluster.batch_jobs_max", "jobs"},
		{"cluster.plan_s", "s"},
		{"cluster.portfolio_span_s", "s"},
		{"cluster.engine_self_s", "s"},
		{"cluster.portfolio_share", "ratio"},
		{"cluster.useful_ratio", "ratio"},
	}
	for _, m := range memberNames() {
		defs = append(defs, metricDef{"cluster.wins." + m, "count"})
	}
	defs = append(defs,
		metricDef{"core.demt_s", "s"},
		metricDef{"core.demt_calls", "count"},
		metricDef{"core.knapsack_s", "s"},
		metricDef{"core.compact_s", "s"},
		metricDef{"core.rest_s", "s"},
	)
	for _, m := range memberNames()[1:] {
		defs = append(defs, metricDef{"baselines." + m + "_s", "s"})
	}
	return append(defs,
		metricDef{"dualapprox.twoshelf_s", "s"},
		metricDef{"lowerbound.makespan_s", "s"},
		metricDef{"lowerbound.minsum_s", "s"},
		metricDef{"schedule.validate_s", "s"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.heap_peak_mb", "MiB"},
		metricDef{"trace.overhead_ratio", "ratio"},
		metricDef{"trace.covered_share", "ratio"},
		metricDef{"trace.unattributed_share", "ratio"},
	)
}()

// result accumulates one run's operations, check outcomes and metrics.
type result struct {
	attempted int
	failed    int
	failures  []string
	// notes are informational lines printed before the metrics.
	notes  []string
	values map[string]float64
}

func newResult() *result { return &result{values: map[string]float64{}} }

// op counts one operation of the workload, failed when err is non-nil.
func (r *result) op(err error, what string) bool {
	r.attempted++
	if err != nil {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", what, err))
		return false
	}
	return true
}

// check counts one output or shape check.
func (r *result) check(ok bool, format string, args ...any) bool {
	if ok {
		return r.op(nil, "")
	}
	return r.op(fmt.Errorf(format, args...), "check")
}

// note records an informational line.
func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// set records a metric value.
func (r *result) set(name string, v float64) { r.values[name] = v }

// unexercised reports 0 for every per-layer metric under the given name
// prefixes: layers the workload never calls.
func (r *result) unexercised(prefixes ...string) {
	for _, d := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(d.name, p) {
				r.values[d.name] = 0
			}
		}
	}
}

// outcome is the last line of the benchmark's standard output.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints every metric of the selected set by name with its unit,
// then the one-line JSON outcome. A metric the run failed to produce is a
// failure of the run.
func (r *result) write(w io.Writer, defs []metricDef) error {
	out := outcome{Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.check(false, "metric %s was not measured", d.name)
			continue
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "metric %-28s %14.6g %s\n", d.name, v, d.unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	out.Attempted, out.Failed = r.attempted, r.failed
	out.Correct = r.failed == 0
	if out.Attempted == 0 {
		out.Attempted = 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
