package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"bicriteria/internal/flight"
	"bicriteria/internal/grid"
	"bicriteria/internal/obs"
	"bicriteria/internal/online"
	"bicriteria/internal/serve"
)

const (
	// readyTimeout bounds the wait for a restored service's first refresh.
	readyTimeout = 60 * time.Second
	// tailTimeout bounds the wait, after the last submission, for every
	// accepted job to leave the queued state.
	tailTimeout = 30 * time.Second
	// pollQueuedRun ends a status sweep after this many consecutive jobs
	// still queued: visibility advances roughly in release order, so the
	// rest of the sweep would mostly read queued jobs too.
	pollQueuedRun = 4
	// pollTick paces the status sweeps once every job has been sent.
	pollTick = 2 * time.Millisecond
	// advanceMerge folds visibility advances closer than this into one:
	// the jobs one refresh reveals can take a few sweeps to read.
	advanceMerge = 100 * time.Millisecond
)

// live carries the inputs of one live-history run.
type live struct {
	w        spec
	o        options
	dir      string
	snapshot string
	copies   int
	// history is the restored stream with its stamped releases; fresh
	// holds the jobs the load generator submits.
	history []online.Job
	fresh   []online.Job
}

// liveServer is one restored service and the registry it writes into.
type liveServer struct {
	srv *serve.Server
	reg *obs.Registry
	// restore is the NewServer call, ready the time until the first
	// refresh moved a restored job out of queued.
	restore, ready float64
}

// liveWindow is what the load generator observed in one submission
// window, and what the service reported at its drain.
type liveWindow struct {
	accepted  []online.Job
	rejected  int
	invisible int
	// span is the seconds from the window's first due send until the last
	// accepted job was first seen past queued; vStart the service's
	// virtual time when the window opened; restored the jobs restored by
	// then.
	span     float64
	vStart   float64
	restored int
	// visible holds per-job seconds from the due send time to the first
	// status read past queued; submit and status the handler times; late
	// how far behind schedule each send went out; advances the wall times
	// at which visibility moved.
	visible, submit, status, late []float64
	advances                      []time.Time

	drain float64
	final *serve.FinalReport
	// Registry scrapes at the window's start, at the drain's start and
	// after the drain.
	scrStart, scrDrain, scrEnd map[string]float64
	gcCycles                   float64
	allocKiB                   float64
	heapPeakMiB                float64
}

const (
	// liveWindows is how many services an untraced live run restores.
	// Each restore is a set-up sample, and each service then carries one
	// submission window of --seconds/liveWindows; the metrics pool the
	// windows and take the median of the per-window figures.
	liveWindows = 3
)

// runLive measures the live-history workload: a service restored from a
// snapshot of the history, fed single-job submissions on an open-loop
// schedule through its HTTP handler while its refresher replays the whole
// stream, then drained.
func runLive(w spec, o options, res *result) error {
	dir, err := os.MkdirTemp(o.workDir, "live-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fresh := int(math.Round(w.LiveRate * o.seconds / liveWindows))
	all, err := w.generate(o.seed, w.Jobs+fresh)
	if err != nil {
		return err
	}
	l := &live{w: w, o: o, dir: dir, snapshot: filepath.Join(dir, "history.json"), fresh: all[w.Jobs:]}
	if l.history, err = writeHistory(w, o.seed, all[:w.Jobs], l.snapshot); err != nil {
		return err
	}

	var setups, restores []float64
	var wins []*liveWindow
	var quals []quality
	for i := 0; i < liveWindows; i++ {
		ls, err := l.start(nil)
		if err != nil {
			return err
		}
		setups = append(setups, ls.ready)
		restores = append(restores, ls.restore)
		win, err := l.measure(ls, nil)
		if err != nil {
			return err
		}
		wins = append(wins, win)
		quals = append(quals, l.check(res, win))
	}
	var accepted, span, allocKiB float64
	var visible, late, drains, cmaxGaps, minsumGaps []float64
	for i, win := range wins {
		accepted += float64(len(win.accepted))
		span += win.span
		allocKiB += win.allocKiB
		visible = append(visible, win.visible...)
		late = append(late, win.late...)
		drains = append(drains, win.drain)
		cmaxGaps = append(cmaxGaps, quals[i].cmaxGap)
		minsumGaps = append(minsumGaps, quals[i].minsumGap)
		res.check(win.restored >= w.MinRestored, "shape: %d jobs restored at the window's start, want >= %d", win.restored, w.MinRestored)
	}
	visP50 := quantile(visible, 0.5)
	res.set("jobs_per_s", accepted/span)
	res.set("visible_p50_s", visP50)
	res.set("visible_p99_s", quantile(visible, 0.99))
	res.set("drain_s", median(drains))
	res.set("cmax_gap", median(cmaxGaps))
	res.set("minsum_gap", median(minsumGaps))
	res.set("alloc_kb_per_job", allocKiB/accepted)
	res.set("setup_s", median(setups))
	if w.MaxLateShare > 0 {
		lateP99 := quantile(late, 0.99)
		res.check(lateP99 < w.MaxLateShare*visP50, "shape: load generator p99 lateness %.4gs is not below %g of visible p50 %.4gs", lateP99, w.MaxLateShare, visP50)
	}
	if !o.trace {
		return nil
	}

	tr := newTracer()
	tls, err := l.start(tr)
	if err != nil {
		return err
	}
	restores = append(restores, tls.restore)
	twin, err := l.measure(tls, tr)
	if err != nil {
		return err
	}
	tq := l.check(res, twin)
	calls, _, phases := tr.take()
	l.reportLayers(res, tr, twin, tq, calls, phases)
	res.set("serve.restore_s", median(restores))
	res.set("trace.overhead_ratio", ratio(visP50, quantile(twin.visible, 0.5)))
	notePredictions(res, w, len(twin.accepted), quantile(twin.visible, 0.5))
	return nil
}

// writeHistory submits the history to a service whose clock the
// benchmark drives, so every job is stamped with its generated release,
// and drains it: the drain writes the snapshot the measured services
// restore from. It returns the history as the service stamped it.
func writeHistory(w spec, seed int64, jobs []online.Job, path string) ([]online.Job, error) {
	cfg, err := w.gridConfig(seed, nil, nil)
	if err != nil {
		return nil, err
	}
	base := time.Unix(1<<30, 0)
	var mu sync.Mutex
	at := base
	srv, err := serve.NewServer(serve.Config{
		Grid:             cfg,
		Speedup:          1,
		RefreshInterval:  -1,
		SnapshotPath:     path,
		SnapshotInterval: -1,
		QueueDepth:       len(jobs) + 1,
		Clock: func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			return at
		},
	})
	if err != nil {
		return nil, err
	}
	stamped := make([]online.Job, 0, len(jobs))
	for _, j := range jobs {
		mu.Lock()
		at = base.Add(time.Duration(j.Release * float64(time.Second)))
		mu.Unlock()
		acc, err := srv.Submit(j.Task)
		if err != nil {
			_, _ = srv.Drain()
			return nil, fmt.Errorf("writing the history: %w", err)
		}
		stamped = append(stamped, online.Job{Task: j.Task, Release: acc.Release})
	}
	if _, err := srv.Drain(); err != nil {
		return nil, err
	}
	return stamped, nil
}

// start restores a service from a fresh copy of the history snapshot and
// waits until its first refresh has moved a restored job out of queued.
func (l *live) start(tr *tracer) (*liveServer, error) {
	reg := obs.NewRegistry()
	cfg, err := l.w.gridConfig(l.o.seed, tr, reg)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(l.snapshot)
	if err != nil {
		return nil, err
	}
	l.copies++
	path := filepath.Join(l.dir, "serve-"+strconv.Itoa(l.copies)+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	runtime.GC()
	start := now()
	srv, err := serve.NewServer(serve.Config{Grid: cfg, Speedup: l.w.Speedup, SnapshotPath: path, Metrics: reg})
	if err != nil {
		return nil, err
	}
	restore := since(start)
	probe := l.history[0].Task.ID
	for {
		if st, ok := srv.Status(probe); ok && st.State != serve.StateQueued {
			break
		}
		if since(start) > readyTimeout.Seconds() {
			_, _ = srv.Drain()
			return nil, fmt.Errorf("restored service not ready after %s", readyTimeout)
		}
		sleep(time.Millisecond)
	}
	return &liveServer{srv: srv, reg: reg, restore: restore, ready: since(start)}, nil
}

// measure runs one submission window against the service, waits for
// every accepted job to become visible, and drains the service. With a
// tracer it records the batch instances of the drain's replay.
func (l *live) measure(ls *liveServer, tr *tracer) (*liveWindow, error) {
	if tr != nil {
		tr.take()
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	heap := startHeapSampler()
	defer heap.finish()
	scr0, err := scrape(ls.reg)
	var win *liveWindow
	if err == nil {
		win, err = l.load(ls.srv)
	}
	if err == nil {
		win.scrStart = scr0
		win.scrDrain, err = scrape(ls.reg)
	}
	if err != nil {
		_, _ = ls.srv.Drain()
		return nil, err
	}
	if tr != nil {
		tr.setRecord(true)
	}
	runtime.GC()
	start := now()
	final, err := ls.srv.Drain()
	win.drain = since(start)
	if tr != nil {
		tr.setRecord(false)
	}
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	win.final = final
	if win.scrEnd, err = scrape(ls.reg); err != nil {
		return nil, err
	}
	win.gcCycles = float64(ms1.NumGC - ms0.NumGC)
	win.allocKiB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024
	win.heapPeakMiB = heap.finish()
	return win, nil
}

// load is the open-loop load generator: one goroutine sends the fresh
// jobs as single-job POST /jobs requests at the workload's rate, and
// between sends polls GET /jobs/{id} oldest-first until each accepted job
// has left queued. It returns once every job is visible or the tail
// timeout expires.
func (l *live) load(srv *serve.Server) (*liveWindow, error) {
	h := srv.Handler()
	n := len(l.fresh)
	bodies := make([][]byte, n)
	for i, j := range l.fresh {
		body, err := json.Marshal(serve.JobSpec{ID: j.Task.ID, Name: j.Task.Name, Weight: j.Task.Weight, Times: j.Task.Times})
		if err != nil {
			return nil, err
		}
		bodies[i] = body
	}
	win := &liveWindow{restored: srv.CountersSnapshot().Restored, vStart: srv.Now()}
	period := time.Duration(float64(time.Second) / l.w.LiveRate)
	first := now().Add(period)
	due := func(i int) time.Time { return first.Add(time.Duration(i) * period) }
	var waiting []int
	var deadline, lastAdvance, lastVisible time.Time
	next := 0
	for next < n || len(waiting) > 0 {
		if next < n && !now().Before(due(next)) {
			sent := now()
			win.late = append(win.late, sent.Sub(due(next)).Seconds())
			code, resp, took := serveJSON[serve.SubmitResponse](h, http.MethodPost, "/jobs", bodies[next])
			win.submit = append(win.submit, took)
			if code == http.StatusAccepted && len(resp.Accepted) == 1 {
				win.accepted = append(win.accepted, online.Job{Task: l.fresh[next].Task, Release: resp.Accepted[0].Release})
				waiting = append(waiting, next)
			} else {
				win.rejected++
			}
			next++
			deadline = now().Add(tailTimeout)
			continue
		}
		if next == n && now().After(deadline) {
			break
		}
		// One sweep, oldest first, until a run of still-queued jobs or a
		// send falls due.
		kept := waiting[:0]
		queuedRun, advanced := 0, false
		for i, idx := range waiting {
			if queuedRun >= pollQueuedRun || (next < n && !now().Before(due(next))) {
				kept = append(kept, waiting[i:]...)
				break
			}
			path := "/jobs/" + strconv.Itoa(l.fresh[idx].Task.ID)
			code, st, took := serveJSON[struct {
				State string `json:"state"`
			}](h, http.MethodGet, path, nil)
			win.status = append(win.status, took)
			if code == http.StatusOK && st.State != serve.StateQueued.String() {
				lastVisible = now()
				win.visible = append(win.visible, lastVisible.Sub(due(idx)).Seconds())
				advanced = true
				continue
			}
			queuedRun++
			kept = append(kept, idx)
		}
		waiting = kept
		if advanced {
			if t := now(); lastAdvance.IsZero() || t.Sub(lastAdvance) > advanceMerge {
				win.advances = append(win.advances, t)
				lastAdvance = t
			}
		}
		wait := pollTick
		if next < n {
			wait = due(next).Sub(now())
		}
		if wait > 0 {
			sleep(wait)
		}
	}
	win.invisible = len(waiting)
	win.span = lastVisible.Sub(first).Seconds()
	return win, nil
}

// serveJSON calls the handler in-process, times the call and decodes the
// JSON response body. A body that does not decode reports status 0.
func serveJSON[T any](h http.Handler, method, path string, body []byte) (int, T, float64) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	start := now()
	h.ServeHTTP(rec, req)
	took := since(start)
	var out T
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		return 0, out, took
	}
	return rec.Code, out, took
}

// check verifies one window: every submission was admitted and became
// visible before the drain, the drained report equals an offline replay
// of the accepted stream, and every batch honours its lower bounds.
func (l *live) check(res *result, win *liveWindow) quality {
	for range win.accepted {
		res.op(nil, "")
	}
	for i := 0; i < win.rejected; i++ {
		res.op(fmt.Errorf("a submission was rejected"), "submit")
	}
	for i := 0; i < win.invisible; i++ {
		res.op(fmt.Errorf("an accepted job never left queued before the drain"), "visibility")
	}
	stream := append(append([]online.Job(nil), l.history...), win.accepted...)
	res.check(win.final.Jobs == len(stream), "drain reports %d jobs, want %d", win.final.Jobs, len(stream))
	cfg, err := l.w.gridConfig(l.o.seed, nil, nil)
	if err != nil {
		res.op(err, "offline replay")
		return quality{}
	}
	fed, err := grid.New(cfg)
	if err != nil {
		res.op(err, "offline replay")
		return quality{}
	}
	rep, err := fed.RunContext(context.Background(), stream)
	if res.op(err, "offline replay") {
		res.check(sameReplay(rep, win.final.Grid), "the drained report differs from an offline replay of the accepted stream")
	}
	return checkReport(res, "drain", win.final.Grid, stream, l.w.Shards)
}

// reportLayers sets the per-layer metrics of a traced window. Times are
// per full replay: window totals over the replays started in the window,
// the drain's included.
func (l *live) reportLayers(res *result, tr *tracer, win *liveWindow, q quality, calls []call, phases map[string]float64) {
	delta := func(a, b map[string]float64, name string) float64 { return b[name] - a[name] }
	windowReplays := delta(win.scrStart, win.scrDrain, routeHist+"_count")
	replays := delta(win.scrStart, win.scrEnd, routeHist+"_count")
	per := func(x float64) float64 { return ratio(x, replays) }

	res.set("serve.submit_p50_s", quantile(win.submit, 0.5))
	res.set("serve.submit_p99_s", quantile(win.submit, 0.99))
	res.set("serve.status_p50_s", quantile(win.status, 0.5))
	res.set("serve.status_p99_s", quantile(win.status, 0.99))
	res.set("serve.status_calls", float64(len(win.status)))
	var gaps []float64
	for i := 1; i < len(win.advances); i++ {
		gaps = append(gaps, win.advances[i].Sub(win.advances[i-1]).Seconds())
	}
	res.set("serve.refresh_gap_p50_s", median(gaps))
	res.set("serve.replays", windowReplays)
	committed := 0
	for _, crep := range win.final.Grid.Clusters {
		for _, br := range crep.Batches {
			if br.FireTime >= win.vStart && br.FireTime < win.final.VirtualNow {
				committed++
			}
		}
	}
	res.set("serve.replay_useful_ratio", ratio(float64(committed), delta(win.scrStart, win.scrDrain, planHist+"_count")))
	res.set("loadgen.late_p99_s", quantile(win.late, 0.99))
	res.set("loadgen.late_max_s", maxOf(win.late))
	rebuild := retime(func() { flight.FromGridReport(win.final.Grid) })
	res.set("flight.rebuild_s", rebuild)
	res.set("grid.route_s", per(delta(win.scrStart, win.scrEnd, routeHist+"_sum")))
	res.set("cluster.plan_s", per(delta(win.scrStart, win.scrEnd, planHist+"_sum")))
	reportShape(res, tr, win.final.Grid, q)

	// The service forces OnBatch off, so the engine's own time is the gap
	// between successive batch spans of one replay. A shard's replays all
	// start with the history's first batch, which splits them.
	shards := len(l.w.Shards)
	batches := groupBatches(calls, shards, len(tr.members))
	s := layerSample{member: make([]float64, len(tr.members))}
	drain := make([][]batchSpan, shards)
	winners := map[[2]int]string{}
	for c, crep := range win.final.Grid.Clusters {
		for _, br := range crep.Batches {
			winners[[2]int{c, br.Jobs[0]}] = br.Winner
		}
	}
	extent := 0.0
	for sh, bs := range batches {
		crep := win.final.Grid.Clusters[sh]
		if len(crep.Batches) == 0 {
			continue
		}
		firstKey := crep.Batches[0].Jobs[0]
		last := 0
		for k, b := range bs {
			if b.key == firstKey {
				last = k
			} else if k > 0 {
				s.self += b.start - bs[k-1].end
			}
			s.addBatch(tr, b, winners[[2]int{sh, b.key}])
		}
		drain[sh] = bs[last:]
		if n := len(drain[sh]); n > 0 {
			extent = math.Max(extent, drain[sh][n-1].end-drain[sh][0].start)
		}
	}
	// The drain's replay is the one whose winners the final report names.
	d := layerSample{member: make([]float64, len(tr.members))}
	for sh, bs := range drain {
		for _, b := range bs {
			d.addBatch(tr, b, winners[[2]int{sh, b.key}])
		}
	}
	res.set("cluster.portfolio_span_s", per(s.span))
	res.set("cluster.engine_self_s", per(s.self))
	res.set("cluster.portfolio_share", ratio(s.span, s.span+s.self))
	res.set("cluster.useful_ratio", ratio(d.winner, d.all))
	res.set("core.demt_s", per(s.member[0]))
	res.set("core.demt_calls", per(s.batches))
	res.set("core.knapsack_s", per(phases["knapsack"]))
	res.set("core.compact_s", per(phases["compact"]))
	res.set("core.rest_s", per(s.member[0]-phases["knapsack"]-phases["compact"]))
	for m := 1; m < len(tr.members); m++ {
		res.set("baselines."+tr.members[m]+"_s", per(s.member[m]))
	}
	retimeBatches(res, drain)
	res.set("runtime.gc_cycles", per(win.gcCycles))
	res.set("runtime.heap_peak_mb", win.heapPeakMiB)
	covered := ratio(delta(win.scrDrain, win.scrEnd, routeHist+"_sum")+extent+rebuild, win.drain)
	res.set("trace.covered_share", covered)
	res.set("trace.unattributed_share", 1-covered)
}
