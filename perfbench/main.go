// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against the library's public entry points — an offline grid
// federation replay, or an in-process scheduler service driven through
// its HTTP handler — checks the outputs, and prints every metric by name
// with its unit, followed by a one-line JSON outcome.
//
// Usage (from the repository root, see run.sh):
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1
// it installs timing wrappers around the calls it hands to the program
// and reports the per-layer metrics instead. The exit code is non-zero
// when a run fails or any output or shape check fails. README.md lists
// the workloads, the metrics and their definitions.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// options carries the run's arguments.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// workDir holds the run's scratch files (the live workload's
	// snapshots); it must exist.
	workDir string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	name := flags.String("workload", "", "workload to run: "+workloadNames())
	seed := flags.Int64("seed", 1, "seed of the generated inputs")
	seconds := flags.Float64("seconds", 20, "seconds each phase of the run measures")
	trace := flags.Int("trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
	workDir := flags.String("workdir", ".bench_build", "directory for scratch files, created when missing")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0 or 1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, workDir: *workDir}
	printProvenance(stdout, w, o)
	res, err := runWorkload(w, o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.Name, err)
		return 1
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	if err := res.write(stdout, defs); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if res.failed > 0 {
		return 1
	}
	return 0
}

// runWorkload runs one workload and returns its metrics and check tally.
// An error means the run could not produce a result at all.
func runWorkload(w spec, o options) (*result, error) {
	res := newResult()
	var err error
	if w.Live {
		err = runLive(w, o, res)
	} else {
		err = runOffline(w, o, res)
	}
	return res, err
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}

// printProvenance records what the numbers were measured on and why the
// workload exists.
func printProvenance(w io.Writer, s spec, o options) {
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %t\n", s.Name, o.seed, o.seconds, o.trace)
	fmt.Fprintf(w, "why: %s\n", s.Why)
	fmt.Fprintf(w, "host: nproc %d GOMAXPROCS %d %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(w, "commit: %s source-sha256 %s\n", commit(), sourceDigest("."))
}

// commit returns the VCS revision stamped into the binary, when it was
// built inside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// sourceDigest hashes the Go sources of the module rooted at dir (the
// benchmark's own directory excluded), so a run names the code it
// measured even when the checkout carries no VCS metadata.
func sourceDigest(dir string) string {
	var files []string
	_ = filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != dir && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(p, ".go") {
			files = append(files, p)
		}
		return nil
	})
	if len(files) == 0 {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
