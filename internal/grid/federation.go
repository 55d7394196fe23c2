// Package grid federates many independent cluster engines behind one
// job-routing front door: a sharded multi-cluster grid with a concurrent
// meta-scheduler.
//
// A Federation runs N internal/cluster engines — heterogeneous processor
// counts, independent reservations, batching policies and perturbation
// seeds — as concurrent shards. The meta-scheduler consumes a single
// arrival stream in deterministic order (release date, then task ID) and
// routes every job to one cluster under a pluggable routing policy:
// round-robin, least-backlog, lower-bound-aware (the cluster whose DEMT
// makespan lower bound grows least) or moldability-aware (jobs go to the
// smallest cluster fitting their useful parallelism). Admission control
// closes a cluster while its estimated backlog exceeds a limit, and the
// concurrent path hands decisions to the shards through bounded dispatch
// queues; the shards collect their sub-streams concurrently and replay
// them through their engines in parallel.
//
// Replays are deterministic: routing decisions are a pure function of the
// stream and the policy, every cluster engine is deterministic, and the
// aggregation is order-fixed — so a concurrent run is bit-identical to a
// sequential one under the same configuration, which the tests assert for
// every policy.
package grid

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"bicriteria/internal/cluster"
	"bicriteria/internal/faults"
	"bicriteria/internal/obs"
	"bicriteria/internal/online"
	"bicriteria/internal/reservation"
	"bicriteria/internal/validate"
)

// ClusterSpec configures one shard of the federation. The zero values of
// the optional fields mean what they mean for a standalone cluster engine
// (default portfolio, makespan objective, batch-on-idle policy, exact
// runtimes).
type ClusterSpec struct {
	// M is the shard's processor count.
	M int
	// Portfolio, Objective, Policy and Reservations configure the shard's
	// engine exactly like cluster.Config.
	Portfolio    []cluster.Algorithm
	Objective    cluster.Objective
	Policy       cluster.BatchPolicy
	Reservations []reservation.Reservation
	// Perturb is the shard's runtime perturbation (independent noise seeds
	// per shard make the grid heterogeneous in time as well as in size).
	Perturb func(taskID int, planned float64) float64
	// Racing enables the shard's portfolio early cutoff, exactly like
	// cluster.Config.Racing. The zero value disables racing.
	Racing cluster.Racing
}

// Config drives a grid federation.
type Config struct {
	// Clusters lists the shards. At least one is required.
	Clusters []ClusterSpec
	// Routing picks the cluster of every job; nil means LeastBacklog().
	Routing RoutingPolicy
	// AdmitBacklog closes a cluster to new admissions while its estimated
	// per-processor backlog (in time units) exceeds the limit; jobs are
	// steered to open clusters instead. Zero disables admission control.
	// When every cluster is saturated, all of them are offered again: the
	// grid never drops a job.
	AdmitBacklog float64
	// Sequential disables all goroutines: shards run one after the other
	// and each engine runs its portfolio sequentially. The reports are
	// identical either way; the switch exists for the determinism tests.
	Sequential bool
	// Faults injects a deterministic fault plan: node outages go to the
	// matching shard engines (running jobs are killed and replanned),
	// shard outages additionally close the shard at the router, kill
	// whatever it was running and drain its queued jobs back through the
	// routing policy as migrations. Nil or empty means no faults and
	// bit-identical behaviour to a federation without the field.
	Faults *faults.Plan
	// Replan selects how shard engines resubmit killed jobs; the zero
	// value restarts them from scratch.
	Replan cluster.ReplanPolicy
	// MaxRetries caps per-job kills before a shard engine abandons the job
	// as lost; zero means cluster.DefaultMaxRetries.
	MaxRetries int
	// OnDecision, when non-nil, receives every routing decision in stream
	// order as it is made.
	OnDecision func(Decision)
	// OnBatch, when non-nil, receives every shard engine's batch report as
	// soon as the batch completes, tagged with the shard index. On the
	// concurrent path the shards call it from their own goroutines, so
	// implementations must be safe for concurrent use (the scenario layer
	// serializes with a mutex). Nil leaves the replay untouched.
	OnBatch func(cluster int, br cluster.BatchReport)
	// Metrics, when non-nil, receives wall-clock timing histograms of the
	// grid hot path: the routing pass, plus every shard engine's portfolio
	// and batch-planning timings (the registry is shared across shards,
	// which is safe — all registry operations are mutex-protected).
	// Timings never influence routing or scheduling, so instrumented
	// replays stay bit-identical.
	Metrics *obs.Registry
}

// Report is the outcome of a grid run.
type Report struct {
	// Policy is the routing policy's name.
	Policy string
	// Decisions lists every routing decision in stream order.
	Decisions []Decision
	// Clusters holds the per-shard engine reports, indexed like
	// Config.Clusters.
	Clusters []*cluster.Report
	// Metrics is the grid-wide aggregate.
	Metrics Metrics
}

// Federation is a reusable grid with a fixed configuration.
type Federation struct {
	cfg     Config
	engines []*cluster.Engine
}

// New validates the configuration eagerly and builds the federation,
// including every shard engine. Bad configurations fail here — before any
// shard goroutine spawns — with a validate.Error naming the offending
// field path ("clusters[2].m", "admit_backlog", ...).
func New(cfg Config) (*Federation, error) {
	if len(cfg.Clusters) == 0 {
		return nil, validate.Errorf("clusters", "federation needs at least one cluster")
	}
	if cfg.AdmitBacklog < 0 || math.IsNaN(cfg.AdmitBacklog) || math.IsInf(cfg.AdmitBacklog, 0) {
		return nil, validate.Errorf("admit_backlog", "admission backlog limit must be non-negative and finite, got %g", cfg.AdmitBacklog)
	}
	if cfg.Routing == nil {
		cfg.Routing = LeastBacklog()
	}
	sizes := make([]int, len(cfg.Clusters))
	for i, spec := range cfg.Clusters {
		sizes[i] = spec.M
	}
	if err := cfg.Faults.Validate(sizes); err != nil {
		return nil, validate.Prefix("faults", err)
	}
	f := &Federation{cfg: cfg, engines: make([]*cluster.Engine, len(cfg.Clusters))}
	for i, spec := range cfg.Clusters {
		ccfg := cluster.Config{
			M:            spec.M,
			Portfolio:    spec.Portfolio,
			Objective:    spec.Objective,
			Policy:       spec.Policy,
			Reservations: spec.Reservations,
			Perturb:      spec.Perturb,
			Racing:       spec.Racing,
			Sequential:   cfg.Sequential,
			Outages:      cfg.Faults.ClusterWindows(i, spec.M),
			Replan:       cfg.Replan,
			MaxRetries:   cfg.MaxRetries,
			Metrics:      cfg.Metrics,
		}
		if cfg.OnBatch != nil {
			shard := i
			onBatch := cfg.OnBatch
			ccfg.OnBatch = func(br cluster.BatchReport) { onBatch(shard, br) }
		}
		eng, err := cluster.New(ccfg)
		if err != nil {
			return nil, validate.Prefix(validate.Index("clusters", i), err)
		}
		f.engines[i] = eng
	}
	return f, nil
}

// resettable lets stateful built-in policies (round-robin) restart their
// cycle at the beginning of every Run, so two Runs of one Federation are
// identical.
type resettable interface{ reset() }

// Run routes the job stream across the shards and replays every shard
// through its engine — concurrently unless Config.Sequential — then
// aggregates the grid metrics. The report is bit-identical between the
// sequential and the concurrent path.
func (f *Federation) Run(jobs []online.Job) (*Report, error) { //lint:allow ctxflow legacy context-free wrapper; the *Context variant is the cancellable entry point
	return f.RunContext(context.Background(), jobs) //lint:allow ctxflow legacy wrapper supplies the root context for callers without one
}

// RunContext is Run with cancellation: the context is threaded into every
// shard engine's replay loop, so cancelling it aborts the whole grid run
// between batches — concurrent shards each observe the cancellation,
// return promptly, and the WaitGroup join cannot deadlock. The returned
// error wraps the context's (errors.Is(err, context.Canceled) holds).
func (f *Federation) RunContext(ctx context.Context, jobs []online.Job) (*Report, error) {
	seen := make(map[int]bool, len(jobs))
	for i := range jobs {
		j := &jobs[i]
		if err := j.Task.Validate(); err != nil {
			return nil, err
		}
		if j.Release < 0 {
			return nil, fmt.Errorf("grid: job %d has negative release date", j.Task.ID)
		}
		if seen[j.Task.ID] {
			return nil, fmt.Errorf("grid: duplicate job ID %d in the stream", j.Task.ID)
		}
		seen[j.Task.ID] = true
	}
	sorted := make([]online.Job, len(jobs))
	copy(sorted, jobs)
	sort.SliceStable(sorted, func(a, b int) bool {
		if sorted[a].Release != sorted[b].Release {
			return sorted[a].Release < sorted[b].Release
		}
		return sorted[a].Task.ID < sorted[b].Task.ID
	})

	if p, ok := f.cfg.Routing.(resettable); ok {
		p.reset()
	}
	rt := newRouter(f.cfg.Clusters, f.cfg.Routing, f.cfg.AdmitBacklog, f.cfg.Faults)

	// Routing is one pure sequential pass shared by both execution paths
	// (it interleaves shard-outage drains with arrivals in time order);
	// only the shard replays differ in concurrency.
	routeStart := time.Now() //lint:allow nowallclock wall-clock feeds the obs metrics only, never a scheduling decision
	decisions, routed, err := rt.routeStream(sorted, f.cfg.OnDecision)
	if err != nil {
		return nil, err
	}
	if f.cfg.Metrics != nil {
		f.cfg.Metrics.Histogram("bicrit_grid_route_stream_seconds",
			"Wall-clock time of the grid's routing pass over one full job stream.",
			obs.TimeBuckets()).Observe(time.Since(routeStart).Seconds()) //lint:allow nowallclock wall-clock feeds the obs metrics only, never a scheduling decision
	}
	report := &Report{
		Policy:    f.cfg.Routing.Name(),
		Decisions: decisions,
		Clusters:  make([]*cluster.Report, len(f.engines)),
	}
	shards := shardStreams(len(f.engines), decisions, routed)
	if f.cfg.Sequential {
		err = f.runSequential(ctx, shards, report.Clusters)
	} else {
		err = f.runConcurrent(ctx, shards, report.Clusters)
	}
	if err != nil {
		return nil, err
	}
	report.Metrics = aggregate(f.cfg.Clusters, sorted, report.Clusters, rt)
	return report, nil
}

// shardStreams resolves the final sub-stream of every shard from the
// decision list: each job's last decision wins, because an earlier routing
// to a shard that later went dark was retracted by the migration decision
// that drained it.
func shardStreams(n int, decisions []Decision, routed []online.Job) [][]online.Job {
	last := make(map[int]int, len(routed))
	for k, d := range decisions {
		last[d.JobID] = k
	}
	shards := make([][]online.Job, n)
	for k, d := range decisions {
		if last[d.JobID] != k {
			continue
		}
		shards[d.Cluster] = append(shards[d.Cluster], routed[k])
	}
	return shards
}

// runSequential is the goroutine-free path: replay the shards one after
// the other.
func (f *Federation) runSequential(ctx context.Context, shards [][]online.Job, out []*cluster.Report) error {
	for i, eng := range f.engines {
		rep, err := eng.RunContext(ctx, shards[i])
		if err != nil {
			return fmt.Errorf("grid: cluster %d: %w", i, err)
		}
		out[i] = rep
	}
	return nil
}

// runConcurrent is the goroutine path: one goroutine per shard replays
// its complete sub-stream in parallel (an engine needs its whole
// sub-stream before it can batch, and routing materialized the
// sub-streams already, so there is nothing left to stream through
// queues).
func (f *Federation) runConcurrent(ctx context.Context, shards [][]online.Job, out []*cluster.Report) error {
	errs := make([]error, len(f.engines))
	var wg sync.WaitGroup
	for i := range f.engines {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := f.engines[i].RunContext(ctx, shards[i])
			if err != nil {
				errs[i] = fmt.Errorf("grid: cluster %d: %w", i, err)
				return
			}
			out[i] = rep
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
