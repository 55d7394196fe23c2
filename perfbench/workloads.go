package main

import (
	"fmt"

	"bicriteria/internal/cluster"
	"bicriteria/internal/grid"
	"bicriteria/internal/obs"
	"bicriteria/internal/online"
	"bicriteria/internal/workload"
)

// spec describes one benchmark workload. Every workload draws the paper's
// Mixed family from the run's seed; the program only ever sees the
// generated jobs.
type spec struct {
	Name string
	// Why is the reason the workload exists, with the layer it is
	// predicted to spend most of its time in.
	Why string
	// Shards lists the processor count of every grid shard.
	Shards []int
	// Jobs is the offline stream length, or the restored history of the
	// live workload.
	Jobs int
	// Rate is the mean arrival rate in jobs per time unit and Burst the
	// number of jobs sharing one arrival instant.
	Rate  float64
	Burst int
	// Live marks the service workload: LiveRate is the open-loop
	// submission rate in jobs per wall-clock second and Speedup the
	// service's virtual time units per wall-clock second.
	Live     bool
	LiveRate float64
	Speedup  float64
	// MedianBatchMin, MedianBatchMax and MinBatches are the shape checks
	// of the offline workloads. MinRestored and MaxLateShare are the live
	// workload's: the jobs restored when a window opens, and the share of
	// visible_p50_s the generator's p99 lateness must stay below. Zero
	// disables a check.
	MedianBatchMin float64
	MedianBatchMax float64
	MinBatches     int
	MinRestored    int
	MaxLateShare   float64
	// PortfolioShare is the side of 0.5 that cluster.portfolio_share was
	// predicted to fall on, +1 above and -1 below, before the benchmark
	// was first run; 0 makes no prediction.
	PortfolioShare int
}

// workloads lists the benchmark's workloads in reporting order.
var workloads = []spec{
	{
		Name:           "wide-batches",
		Why:            "2x64 processors, 16000 jobs in bursts of 20: batches of a few hundred jobs, so the portfolio members dominate (predicted: core DEMT and baselines)",
		Shards:         []int{64, 64},
		Jobs:           16000,
		Rate:           20,
		Burst:          20,
		MedianBatchMin: 100,
		PortfolioShare: +1,
	},
	{
		Name:           "trickle",
		Why:            "4x32 processors, 8000 Poisson jobs at rate 1: thousands of mostly single-job batches, so per-batch engine costs dominate (predicted: the cluster engine)",
		Shards:         []int{32, 32, 32, 32},
		Jobs:           8000,
		Rate:           1,
		Burst:          1,
		MedianBatchMax: 2,
		MinBatches:     5000,
		PortfolioShare: -1,
	},
	{
		Name:         "live-history",
		Why:          "serve restored from a 6000-job history takes 200 submits/s on an open loop while every refresh replays the whole history (predicted: serve refresh)",
		Shards:       []int{32, 32},
		Jobs:         6000,
		Rate:         1,
		Burst:        1,
		Live:         true,
		LiveRate:     200,
		Speedup:      1e4,
		MinRestored:  6000,
		MaxLateShare: 0.25,
	},
}

// lookupWorkload finds a workload by name.
func lookupWorkload(name string) (spec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// maxShard returns the largest shard size, the machine size the jobs are
// generated for.
func (w spec) maxShard() int {
	m := 0
	for _, s := range w.Shards {
		if s > m {
			m = s
		}
	}
	return m
}

// generate draws n jobs of the workload's arrival process from the seed.
func (w spec) generate(seed int64, n int) ([]online.Job, error) {
	arrivals, err := workload.GenerateArrivals(workload.ArrivalConfig{
		Workload:  workload.Config{Kind: workload.Mixed, M: w.maxShard(), N: n, Seed: seed},
		Rate:      w.Rate,
		BurstSize: w.Burst,
	})
	if err != nil {
		return nil, err
	}
	return cluster.JobsFromArrivals(arrivals), nil
}

// gridConfig is the federation every workload runs: least-backlog routing,
// batch-on-idle shards, the combined objective with alpha 0.5, 20%
// uniform runtime noise seeded per shard, racing and faults off. A nil
// tracer keeps the default portfolio; reg may be nil.
func (w spec) gridConfig(seed int64, tr *tracer, reg *obs.Registry) (grid.Config, error) {
	specs := make([]grid.ClusterSpec, len(w.Shards))
	for i, m := range w.Shards {
		noise, err := cluster.UniformNoise(0.2, seed^int64(i+1)*0x9E3779B9)
		if err != nil {
			return grid.Config{}, err
		}
		specs[i] = grid.ClusterSpec{
			M:         m,
			Objective: cluster.Objective{Kind: cluster.ObjectiveCombined, Alpha: 0.5},
			Perturb:   noise,
		}
		if tr != nil {
			specs[i].Portfolio = tr.portfolio(i)
		}
	}
	return grid.Config{Clusters: specs, Routing: grid.LeastBacklog(), Metrics: reg}, nil
}
