package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"bicriteria"
)

// lbCmd computes the lower bounds used by the paper's evaluation for a
// workload file: the dual-approximation makespan bound and the minsum
// bounds (fast squashed-area bound and the LP relaxation of section 3.3).
func lbCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bicrit lb", flag.ContinueOnError)
	input := fs.String("i", "", "input workload file (JSON, required)")
	useLP := fs.Bool("lp", true, "also compute the LP-relaxation minsum bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *input == "" {
		return fmt.Errorf("missing -i workload file")
	}
	inst, err := bicriteria.LoadInstance(*input)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "tasks / processors      : %d / %d\n", inst.N(), inst.M)

	start := time.Now()
	cmaxLB := bicriteria.MakespanLowerBound(inst)
	fmt.Fprintf(out, "makespan lower bound    : %.4f (%.2fms)\n", cmaxLB, float64(time.Since(start).Microseconds())/1000)

	start = time.Now()
	fast := bicriteria.MinsumLowerBoundFast(inst)
	fmt.Fprintf(out, "minsum squashed-area LB : %.4f (%.2fms)\n", fast, float64(time.Since(start).Microseconds())/1000)

	if *useLP {
		start = time.Now()
		b, err := bicriteria.MinsumLowerBoundLP(inst, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "minsum LP relaxation LB : %.4f (%d pivots, %.2fms, status %s)\n",
			b.Value, b.Iterations, float64(time.Since(start).Microseconds())/1000, b.Status)
		fmt.Fprintf(out, "LP / squashed-area gain : %.3fx\n", b.Value/fast)
	}
	return nil
}
