package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"bicriteria"
)

// loadCmd is the load generator: it replays an arrival stream (generated
// from the stream flags, or loaded with -in) against a running
// `bicrit serve` instance over HTTP, pacing submissions by the stream's
// inter-arrival gaps scaled by -speedup (0 submits as fast as possible),
// chunking with -bulk, honoring 429 Retry-After back-pressure, and
// optionally draining the server at the end.
func loadCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bicrit load", flag.ContinueOnError)
	stream := addStreamFlags(fs)
	target := fs.String("target", "", "base URL of a running bicrit serve instance (required)")
	inPath := fs.String("in", "", "replay this arrival file instead of generating")
	speedup := fs.Float64("speedup", 0, "virtual time units per wall second for pacing (0 = submit as fast as possible); match the server's speedup")
	bulk := fs.Int("bulk", 1, "jobs per POST /jobs request")
	drain := fs.Bool("drain", false, "drain the server after the replay and print the final report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *target == "" {
		return fmt.Errorf("missing -target URL")
	}
	var arrivals []bicriteria.Arrival
	var err error
	if *inPath == "" {
		arrivals, err = stream.generate()
	} else {
		arrivals, _, err = bicriteria.LoadArrivals(*inPath)
	}
	if err != nil {
		return err
	}
	return replayAgainst(out, *target, arrivals, *speedup, *bulk, *drain)
}

// replayAgainst plays the arrival stream against a live scheduler service:
// the wall-clock load generator half of the serve layer's test story.
func replayAgainst(out io.Writer, target string, arrivals []bicriteria.Arrival, speedup float64, bulk int, drain bool) error {
	if bulk < 1 {
		bulk = 1
	}
	client := &http.Client{Timeout: 60 * time.Second}
	start := time.Now()
	submitted, retries := 0, 0
	for i := 0; i < len(arrivals); {
		// Pacing waits for the chunk's first arrival only: later jobs of
		// the chunk are submitted a little early, which bulk clients do on
		// a real front door too.
		j := min(i+bulk, len(arrivals))
		chunk := arrivals[i:j]
		if speedup > 0 {
			due := time.Duration(chunk[0].Submit / speedup * float64(time.Second))
			if wait := due - time.Since(start); wait > 0 {
				time.Sleep(wait)
			}
		}
		specs := make([]bicriteria.ServeJobSpec, len(chunk))
		for k, a := range chunk {
			specs[k] = bicriteria.ServeJobSpec{
				ID: a.Task.ID, Name: a.Task.Name, Weight: a.Task.Weight, Times: a.Task.Times,
			}
		}
		n, r, err := postChunk(client, target, specs)
		if err != nil {
			return err
		}
		submitted += n
		retries += r
		i = j
	}
	fmt.Fprintf(out, "replayed %d jobs against %s (%d rate-limited retries)\n", submitted, target, retries)
	if !drain {
		return nil
	}
	resp, err := client.Post(target+"/drain", "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("drain returned status %d", resp.StatusCode)
	}
	var final bicriteria.ServeFinalReport
	if err := json.NewDecoder(resp.Body).Decode(&final); err != nil {
		return err
	}
	met := final.Metrics
	fmt.Fprintf(out, "drained %d jobs at virtual time %.2f (policy %s)\n", final.Jobs, final.VirtualNow, final.Policy)
	fmt.Fprintf(out, "  makespan %.2f  weighted completion %.2f  mean stretch %.2f  utilization %.1f%%\n",
		met.Makespan, met.WeightedCompletion, met.MeanStretch, 100*met.Utilization)
	return nil
}

// postChunk submits one bulk request, honoring 429 Retry-After hints.
func postChunk(client *http.Client, target string, specs []bicriteria.ServeJobSpec) (submitted, retries int, err error) {
	body, err := json.Marshal(map[string]any{"jobs": specs})
	if err != nil {
		return 0, 0, err
	}
	for attempt := 0; attempt < 50; attempt++ {
		resp, err := client.Post(target+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return submitted, retries, err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return submitted, retries, err
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			var ack struct {
				Accepted []bicriteria.ServeAccepted `json:"accepted"`
			}
			if err := json.Unmarshal(raw, &ack); err != nil {
				return submitted, retries, err
			}
			return submitted + len(ack.Accepted), retries, nil
		case http.StatusTooManyRequests:
			retries++
			wait := time.Second
			if s := resp.Header.Get("Retry-After"); s != "" {
				if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
					wait = time.Duration(secs) * time.Second
				}
			}
			if wait < 10*time.Millisecond {
				wait = 10 * time.Millisecond
			}
			if wait > 5*time.Second {
				wait = 5 * time.Second
			}
			// A saturated front door may have admitted a prefix of the
			// chunk before rejecting: resubmit only the remainder.
			var partial struct {
				Accepted []bicriteria.ServeAccepted `json:"accepted"`
			}
			if err := json.Unmarshal(raw, &partial); err == nil && len(partial.Accepted) > 0 {
				submitted += len(partial.Accepted)
				done := make(map[int]bool, len(partial.Accepted))
				for _, acc := range partial.Accepted {
					done[acc.ID] = true
				}
				var rest []bicriteria.ServeJobSpec
				for _, spec := range specs {
					if !done[spec.ID] {
						rest = append(rest, spec)
					}
				}
				specs = rest
				if len(specs) == 0 {
					return submitted, retries, nil
				}
				if body, err = json.Marshal(map[string]any{"jobs": specs}); err != nil {
					return submitted, retries, err
				}
			}
			time.Sleep(wait)
		default:
			return submitted, retries, fmt.Errorf("POST /jobs returned status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
		}
	}
	return submitted, retries, fmt.Errorf("giving up after %d rate-limited attempts", 50)
}
