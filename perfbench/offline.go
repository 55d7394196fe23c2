package main

import (
	"bytes"
	"context"
	"runtime"
	rtmetrics "runtime/metrics"
	"sync"
	"time"

	"bicriteria/internal/cluster"
	"bicriteria/internal/dualapprox"
	"bicriteria/internal/flight"
	"bicriteria/internal/grid"
	"bicriteria/internal/lowerbound"
	"bicriteria/internal/obs"
	"bicriteria/internal/online"
)

const (
	// An offline run sets its workload up minSetups times before its
	// first replay, then again for setupSlice seconds after every measured
	// replay; setup_s is the median of all of them. One set-up takes
	// milliseconds, so a few timings taken together would let the host's
	// state in that instant decide the figure; spread over the run, the
	// samples see the same host as the replays.
	minSetups  = 5
	setupSlice = 0.05
	// minReplays is the fewest measured replays an offline phase makes,
	// however short --seconds is.
	minReplays = 3
	// retimeRepeats is how many times a re-timed layer function runs over
	// the recorded batches; the median is reported.
	retimeRepeats = 3
)

// Histogram families the program writes into a registry it is given.
const (
	routeHist = "bicrit_grid_route_stream_seconds"
	planHist  = "bicrit_batch_schedule_seconds"
)

// scrape reads the registry through its Prometheus text rendering and
// sums every sample by name (labels folded), so a histogram's _sum and
// _count can be diffed across a window without touching the registry.
func scrape(reg *obs.Registry) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	fams, err := obs.ParseText(&buf)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, f := range fams {
		for _, s := range f.Rows {
			out[s.Name] += s.Value
		}
	}
	return out, nil
}

// commitClock timestamps every job's batch commit within one replay
// through the grid's OnBatch stream: the offline view of when a job's
// outcome becomes visible.
type commitClock struct {
	mu    sync.Mutex
	start time.Time
	lat   []float64
}

func (c *commitClock) reset() {
	c.mu.Lock()
	c.start, c.lat = now(), c.lat[:0]
	c.mu.Unlock()
}

func (c *commitClock) onBatch(_ int, br cluster.BatchReport) {
	c.mu.Lock()
	t := since(c.start)
	for range br.Jobs {
		c.lat = append(c.lat, t)
	}
	c.mu.Unlock()
}

// percentiles returns the p50 and p99 of the latencies of the replay.
func (c *commitClock) percentiles() (float64, float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return quantile(c.lat, 0.5), quantile(c.lat, 0.99)
}

// runOffline measures one offline workload: the same job stream replayed
// through a grid federation, repeatedly, for the run's seconds.
func runOffline(w spec, o options, res *result) error {
	ctx := context.Background()
	var jobs []online.Job
	var fed *grid.Federation
	clk := &commitClock{}
	var setups []float64
	// setUp generates the input and builds the federation, timed. The
	// replays run on the first set-up's.
	setUp := func() error {
		// Every timed unit starts from a collected heap, so where a GC
		// cycle falls does not depend on what ran before.
		runtime.GC()
		start := now()
		js, err := w.generate(o.seed, w.Jobs)
		if err != nil {
			return err
		}
		cfg, err := w.gridConfig(o.seed, nil, nil)
		if err != nil {
			return err
		}
		cfg.OnBatch = clk.onBatch
		f, err := grid.New(cfg)
		if err != nil {
			return err
		}
		setups = append(setups, since(start))
		if fed == nil {
			jobs, fed = js, f
		}
		return nil
	}
	for i := 0; i < minSetups; i++ {
		if err := setUp(); err != nil {
			return err
		}
	}

	// The warm-up replay is the reference every later replay must equal.
	ref, err := fed.RunContext(ctx, jobs)
	if !res.op(err, "warm-up replay") {
		return nil
	}
	q := checkReport(res, "replay", ref, jobs, w.Shards)

	var rates, p50s, p99s, walls []float64
	var alloc uint64
	begin := now()
	for len(rates) < minReplays || since(begin) < o.seconds {
		runtime.GC()
		clk.reset()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := now()
		rep, err := fed.RunContext(ctx, jobs)
		wall := since(start)
		runtime.ReadMemStats(&ms1)
		alloc += ms1.TotalAlloc - ms0.TotalAlloc
		if !res.op(err, "replay") {
			return nil
		}
		res.check(sameReplay(ref, rep), "replay %d differs from the warm-up replay", len(rates)+1)
		p50, p99 := clk.percentiles()
		rates = append(rates, float64(len(jobs))/wall)
		walls = append(walls, wall)
		p50s, p99s = append(p50s, p50), append(p99s, p99)
		for t := now(); since(t) < setupSlice; {
			if err := setUp(); err != nil {
				return err
			}
		}
	}

	res.set("jobs_per_s", median(rates))
	res.set("visible_p50_s", median(p50s))
	res.set("visible_p99_s", median(p99s))
	res.set("drain_s", median(walls))
	res.set("cmax_gap", q.cmaxGap)
	res.set("minsum_gap", q.minsumGap)
	res.set("alloc_kb_per_job", float64(alloc)/1024/float64(len(jobs)*len(rates)))
	res.set("setup_s", median(setups))

	checkShape(res, w, q)
	if !o.trace {
		return nil
	}
	return traceOffline(ctx, w, o, res, jobs, ref, median(rates), q)
}

// checkShape asserts the batch-size property an offline workload was
// chosen for.
func checkShape(res *result, w spec, q quality) {
	mid := median(q.batchJobs)
	if w.MedianBatchMin > 0 {
		res.check(mid >= w.MedianBatchMin, "shape: median batch %g jobs, want >= %g", mid, w.MedianBatchMin)
	}
	if w.MedianBatchMax > 0 {
		res.check(mid <= w.MedianBatchMax, "shape: median batch %g jobs, want <= %g", mid, w.MedianBatchMax)
	}
	if w.MinBatches > 0 {
		res.check(len(q.batchJobs) >= w.MinBatches, "shape: %d batches, want >= %d", len(q.batchJobs), w.MinBatches)
	}
}

// layerSample is the per-layer breakdown of one traced replay.
type layerSample struct {
	route, plan float64
	// span and self are the portfolio spans and the engine's own time,
	// summed over shards and batches.
	span, self float64
	// winner and all are the winners' member time and every member's.
	winner, all float64
	// member is each portfolio member's busy time, in portfolio order.
	member            []float64
	knapsack, compact float64
	batches           float64
	// extent is the slowest shard's time from its first member start to
	// its last commit; covered is (route + extent) over the replay's wall.
	extent, covered float64
}

// traceOffline replays the stream again with the tracing wrappers
// installed and a registry attached, for the run's seconds, and reports
// the per-layer metrics.
func traceOffline(ctx context.Context, w spec, o options, res *result, jobs []online.Job, ref *grid.Report, untracedRate float64, q quality) error {
	tr := newTracer()
	reg := obs.NewRegistry()
	cfg, err := w.gridConfig(o.seed, tr, reg)
	if err != nil {
		return err
	}
	cfg.OnBatch = tr.onBatch
	fed, err := grid.New(cfg)
	if err != nil {
		return err
	}
	var samples []layerSample
	var rates []float64
	var recorded [][]batchSpan
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	heap := startHeapSampler()
	defer heap.finish()
	begin := now()
	for len(samples) < minReplays || since(begin) < o.seconds {
		before, err := scrape(reg)
		if err != nil {
			return err
		}
		tr.setRecord(len(samples) == 0)
		tr.take()
		runtime.GC()
		start := tr.clock()
		rep, err := fed.RunContext(ctx, jobs)
		wall := tr.clock() - start
		if !res.op(err, "traced replay") {
			return nil
		}
		res.check(sameReplay(ref, rep), "traced replay %d differs from the untraced replay", len(samples)+1)
		after, err := scrape(reg)
		if err != nil {
			return err
		}
		calls, marks, phases := tr.take()
		batches := groupBatches(calls, len(w.Shards), len(tr.members))
		s, ok := offlineSample(tr, batches, marks, len(w.Shards))
		res.check(ok, "traced replay %d: member spans and OnBatch commits disagree", len(samples)+1)
		s.route = after[routeHist+"_sum"] - before[routeHist+"_sum"]
		s.plan = after[planHist+"_sum"] - before[planHist+"_sum"]
		s.knapsack, s.compact = phases["knapsack"], phases["compact"]
		s.covered = (s.route + s.extent) / wall
		samples = append(samples, s)
		rates = append(rates, float64(len(jobs))/wall)
		if recorded == nil {
			recorded = batches
		}
	}
	runtime.ReadMemStats(&ms1)
	heapPeak := heap.finish()

	res.unexercised("serve.", "loadgen.")
	reportLayers(res, tr, samples)
	res.set("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC)/float64(len(samples)))
	res.set("runtime.heap_peak_mb", heapPeak)
	res.set("trace.overhead_ratio", median(rates)/untracedRate)
	res.set("flight.rebuild_s", retime(func() { flight.FromGridReport(ref) }))
	reportShape(res, tr, ref, q)
	retimeBatches(res, recorded)
	notePredictions(res, w, len(jobs), 0)
	return nil
}

// offlineSample folds one traced replay's batch spans and OnBatch commits
// into engine and portfolio time. A shard's engine self time is every
// OnBatch-to-OnBatch interval minus that batch's portfolio span (the
// first interval starts at the shard's first member start).
func offlineSample(tr *tracer, batches [][]batchSpan, marks []mark, shards int) (layerSample, bool) {
	s := layerSample{member: make([]float64, len(tr.members))}
	byShard := make([][]mark, shards)
	for _, m := range marks {
		byShard[m.shard] = append(byShard[m.shard], m)
	}
	ok := true
	for sh := 0; sh < shards; sh++ {
		bs, ms := batches[sh], byShard[sh]
		if len(bs) != len(ms) {
			ok = false
			continue
		}
		if len(bs) == 0 {
			continue
		}
		prev := bs[0].start
		for k, b := range bs {
			if b.key != ms[k].key {
				ok = false
			}
			s.self += ms[k].t - prev - b.dur()
			prev = ms[k].t
			s.addBatch(tr, b, ms[k].winner)
		}
		if ext := prev - bs[0].start; ext > s.extent {
			s.extent = ext
		}
	}
	return s, ok
}

// addBatch accumulates one batch's portfolio span and member times.
func (s *layerSample) addBatch(tr *tracer, b batchSpan, winner string) {
	s.span += b.dur()
	for m, d := range b.member {
		s.member[m] += d
		s.all += d
		if tr.members[m] == winner {
			s.winner += d
		}
	}
	s.batches++
}

// reportLayers sets the cluster, core and baseline metrics from the
// per-replay samples: the median over samples of each quantity.
func reportLayers(res *result, tr *tracer, samples []layerSample) {
	pick := func(f func(layerSample) float64) float64 {
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = f(s)
		}
		return median(xs)
	}
	res.set("grid.route_s", pick(func(s layerSample) float64 { return s.route }))
	res.set("cluster.plan_s", pick(func(s layerSample) float64 { return s.plan }))
	res.set("cluster.portfolio_span_s", pick(func(s layerSample) float64 { return s.span }))
	res.set("cluster.engine_self_s", pick(func(s layerSample) float64 { return s.self }))
	res.set("cluster.portfolio_share", pick(func(s layerSample) float64 { return ratio(s.span, s.span+s.self) }))
	res.set("cluster.useful_ratio", pick(func(s layerSample) float64 { return ratio(s.winner, s.all) }))
	demt := pick(func(s layerSample) float64 { return s.member[0] })
	knap := pick(func(s layerSample) float64 { return s.knapsack })
	comp := pick(func(s layerSample) float64 { return s.compact })
	res.set("core.demt_s", demt)
	res.set("core.demt_calls", pick(func(s layerSample) float64 { return s.batches }))
	res.set("core.knapsack_s", knap)
	res.set("core.compact_s", comp)
	res.set("core.rest_s", demt-knap-comp)
	for m := 1; m < len(tr.members); m++ {
		res.set("baselines."+tr.members[m]+"_s", pick(func(s layerSample) float64 { return s.member[m] }))
	}
	covered := pick(func(s layerSample) float64 { return s.covered })
	res.set("trace.covered_share", covered)
	res.set("trace.unattributed_share", 1-covered)
}

// reportShape sets the batch-shape and winner metrics of a replay.
func reportShape(res *result, tr *tracer, rep *grid.Report, q quality) {
	res.set("cluster.batches", float64(len(q.batchJobs)))
	res.set("cluster.batch_jobs_p50", median(q.batchJobs))
	res.set("cluster.batch_jobs_max", maxOf(q.batchJobs))
	wins := map[string]float64{}
	for _, crep := range rep.Clusters {
		for _, br := range crep.Batches {
			wins[br.Winner]++
		}
	}
	for _, m := range tr.members {
		res.set("cluster.wins."+m, wins[m])
	}
}

// retime runs f retimeRepeats times and returns the median wall time.
func retime(f func()) float64 {
	xs := make([]float64, retimeRepeats)
	for i := range xs {
		start := now()
		f()
		xs[i] = since(start)
	}
	return median(xs)
}

// retimeBatches re-times the per-batch helpers on the batch instances and
// member schedules recorded during one traced replay: the seconds each
// layer would spend over that replay's batches.
func retimeBatches(res *result, batches [][]batchSpan) {
	var recorded []call
	var scheds []call
	for _, shard := range batches {
		for _, b := range shard {
			for _, c := range b.calls {
				if c.inst == nil {
					continue
				}
				if len(recorded) == 0 || recorded[len(recorded)-1].inst != c.inst {
					recorded = append(recorded, c)
				}
				if c.sched != nil {
					scheds = append(scheds, c)
				}
			}
		}
	}
	res.set("dualapprox.twoshelf_s", retime(func() {
		for _, c := range recorded {
			_, _ = dualapprox.TwoShelf(c.inst)
		}
	}))
	res.set("lowerbound.makespan_s", retime(func() {
		for _, c := range recorded {
			lowerbound.Makespan(c.inst)
		}
	}))
	res.set("lowerbound.minsum_s", retime(func() {
		for _, c := range recorded {
			lowerbound.MinsumSquashedArea(c.inst)
		}
	}))
	res.set("schedule.validate_s", retime(func() {
		for _, c := range scheds {
			_ = c.sched.Validate(c.inst, nil)
		}
	}))
}

// heapSampler tracks the peak live heap while a traced phase runs.
type heapSampler struct {
	stop chan struct{}
	done chan float64
	once sync.Once
	peak float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan float64)}
	go func() {
		sample := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		peak := uint64(0)
		for {
			rtmetrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-h.stop:
				h.done <- float64(peak) / (1 << 20)
				return
			default:
				sleep(5 * time.Millisecond)
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it, and returns the peak heap in
// MiB. Later calls return the same value.
func (h *heapSampler) finish() float64 {
	h.once.Do(func() {
		close(h.stop)
		h.peak = <-h.done
	})
	return h.peak
}
