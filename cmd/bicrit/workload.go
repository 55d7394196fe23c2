package main

import (
	"flag"
	"fmt"
	"io"

	"bicriteria"
)

// workloadCmd generates synthetic moldable-task workloads. By default it
// writes an off-line instance following the models of the paper's
// evaluation (section 4.1) as JSON, the input of `bicrit sched` and
// `bicrit lb`. With -arrivals it writes an on-line job stream instead —
// tasks plus renewal-process submission times, optionally bursty and
// heavy-tailed — that scenario files replay (arrivals.file) and
// `bicrit load -in` plays against a live service.
//
// The single -seed flag derives every random stream, so one seed names
// one complete experiment: the task stream (sizes, weights, time
// vectors) draws from seed itself, the arrival instants from
// seed ^ bicriteria.ArrivalSeedSalt and the runtime-tail factors from
// seed ^ bicriteria.RuntimeSeedSalt.
func workloadCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bicrit workload", flag.ContinueOnError)
	stream := addStreamFlags(fs)
	outPath := fs.String("o", "", "output file for instance mode (default: stdout)")
	arrivalsPath := fs.String("arrivals", "", "arrival-stream mode: write an on-line job stream to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *arrivalsPath != "" {
		arrivals, err := stream.generate()
		if err != nil {
			return err
		}
		if err := bicriteria.SaveArrivals(*arrivalsPath, *stream.m, arrivals); err != nil {
			return err
		}
		horizon := 0.0
		if len(arrivals) > 0 {
			horizon = arrivals[len(arrivals)-1].Submit
		}
		fmt.Fprintf(out, "wrote %d arrivals over [0, %.2f] for %d processors to %s\n",
			len(arrivals), horizon, *stream.m, *arrivalsPath)
		return nil
	}

	kind, err := bicriteria.ParseWorkloadKind(*stream.kind)
	if err != nil {
		return err
	}
	inst, err := bicriteria.GenerateWorkload(bicriteria.WorkloadConfig{Kind: kind, M: *stream.m, N: *stream.n, Seed: *stream.seed})
	if err != nil {
		return err
	}
	if *outPath == "" {
		return bicriteria.WriteInstance(out, inst)
	}
	if err := bicriteria.SaveInstance(*outPath, inst); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %d tasks on %d processors (%s workload) to %s\n", inst.N(), inst.M, kind, *outPath)
	return nil
}

// streamFlags are the generation flags `bicrit workload` and
// `bicrit load` share.
type streamFlags struct {
	kind, arrival, runtimeTail       *string
	m, n, burst                      *int
	seed                             *int64
	rate, arrivalShape, runtimeShape *float64
}

func addStreamFlags(fs *flag.FlagSet) *streamFlags {
	return &streamFlags{
		kind:         fs.String("kind", "cirne", "workload kind: weakly-parallel, highly-parallel, mixed or cirne"),
		m:            fs.Int("m", 200, "number of processors"),
		n:            fs.Int("n", 100, "number of tasks"),
		seed:         fs.Int64("seed", 1, "master seed; the task, arrival and runtime-tail streams all derive from it"),
		rate:         fs.Float64("rate", 4, "arrival stream: mean job arrival rate (jobs per time unit)"),
		burst:        fs.Int("burst", 1, "arrival stream: burst size (jobs sharing one submission instant)"),
		arrival:      fs.String("arrival", "exponential", "arrival stream: inter-arrival law (exponential, lognormal or weibull)"),
		arrivalShape: fs.Float64("arrival-shape", 0, "arrival stream: lognormal sigma or weibull shape (0 = default)"),
		runtimeTail:  fs.String("runtime-tail", "default", "arrival stream: heavy-tailed runtime scaling (default, lognormal or weibull)"),
		runtimeShape: fs.Float64("runtime-shape", 0, "arrival stream: shape of the runtime scaling law (0 = default)"),
	}
}

// generate draws the arrival stream the flags describe.
func (f *streamFlags) generate() ([]bicriteria.Arrival, error) {
	kind, err := bicriteria.ParseWorkloadKind(*f.kind)
	if err != nil {
		return nil, err
	}
	arrivalDist, err := bicriteria.ParseArrivalDistribution(*f.arrival)
	if err != nil {
		return nil, err
	}
	runtimeDist, err := bicriteria.ParseArrivalDistribution(*f.runtimeTail)
	if err != nil {
		return nil, err
	}
	return bicriteria.GenerateArrivals(bicriteria.ArrivalConfig{
		Workload:          bicriteria.WorkloadConfig{Kind: kind, M: *f.m, N: *f.n, Seed: *f.seed},
		Rate:              *f.rate,
		BurstSize:         *f.burst,
		Interarrival:      arrivalDist,
		InterarrivalShape: *f.arrivalShape,
		RuntimeTail:       runtimeDist,
		RuntimeTailShape:  *f.runtimeShape,
	})
}
