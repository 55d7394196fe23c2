package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"time"

	"bicriteria/internal/cluster"
	"bicriteria/internal/core"
	"bicriteria/internal/moldable"
	"bicriteria/internal/schedule"
)

// call is one portfolio member scheduling one batch, timed by the
// wrapper the tracer installs around the member's Run function.
type call struct {
	shard, member, key int
	// start and end are seconds since the tracer's origin.
	start, end float64
	// inst and sched are kept only while the tracer records.
	inst  *moldable.Instance
	sched *schedule.Schedule
}

// mark is one OnBatch callback: a batch committed on a shard.
type mark struct {
	shard, key int
	t          float64
	winner     string
}

// tracer records spans around the calls the benchmark hands to the
// program: every portfolio member's Run, the DEMT phase Timing hook and
// the grid's OnBatch callback. Batches are keyed by their smallest job
// ID, which identifies a batch because every job belongs to one batch.
type tracer struct {
	origin  time.Time
	members []string

	mu     sync.Mutex
	record bool
	calls  []call
	marks  []mark
	phases map[string]float64
}

func newTracer() *tracer {
	return &tracer{origin: now(), members: memberNames(), phases: map[string]float64{}}
}

// memberNames lists the default portfolio's members in portfolio order.
func memberNames() []string {
	var names []string
	for _, a := range cluster.DefaultPortfolio(nil) {
		names = append(names, a.Name)
	}
	return names
}

// clock returns the seconds since the tracer's origin.
func (tr *tracer) clock() float64 { return since(tr.origin) }

// batchKey identifies a batch instance by its smallest task ID.
func batchKey(inst *moldable.Instance) int {
	key := math.MaxInt
	for i := range inst.Tasks {
		if inst.Tasks[i].ID < key {
			key = inst.Tasks[i].ID
		}
	}
	return key
}

// portfolio returns the default portfolio of one shard with every member
// wrapped in a timing span and DEMT's phase hook routed to the tracer.
// The wrappers change no scheduling input, so the replay stays identical.
func (tr *tracer) portfolio(shard int) []cluster.Algorithm {
	base := cluster.DefaultPortfolio(&core.Options{Timing: tr.phase})
	out := make([]cluster.Algorithm, len(base))
	for m, a := range base {
		member, run := m, a.Run
		out[m] = cluster.Algorithm{Name: a.Name, Run: func(ctx context.Context, inst *moldable.Instance) (*schedule.Schedule, error) {
			start := tr.clock()
			s, err := run(ctx, inst)
			c := call{shard: shard, member: member, key: batchKey(inst), start: start, end: tr.clock()}
			tr.mu.Lock()
			if tr.record {
				c.inst, c.sched = inst, s
			}
			tr.calls = append(tr.calls, c)
			tr.mu.Unlock()
			return s, err
		}}
	}
	return out
}

// phase is the core.Options.Timing hook.
func (tr *tracer) phase(name string, seconds float64) {
	tr.mu.Lock()
	tr.phases[name] += seconds
	tr.mu.Unlock()
}

// onBatch is the grid.Config.OnBatch hook.
func (tr *tracer) onBatch(shard int, br cluster.BatchReport) {
	t := tr.clock()
	tr.mu.Lock()
	tr.marks = append(tr.marks, mark{shard: shard, key: br.Jobs[0], t: t, winner: br.Winner})
	tr.mu.Unlock()
}

// setRecord turns the retention of batch instances and schedules on or off.
func (tr *tracer) setRecord(on bool) {
	tr.mu.Lock()
	tr.record = on
	tr.mu.Unlock()
}

// take returns everything recorded so far and clears the tracer.
func (tr *tracer) take() ([]call, []mark, map[string]float64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	calls, marks, phases := tr.calls, tr.marks, tr.phases
	tr.calls, tr.marks, tr.phases = nil, nil, map[string]float64{}
	return calls, marks, phases
}

// batchSpan is one batch as the member wrappers saw it: from the first
// member's start to the last member's end.
type batchSpan struct {
	key        int
	start, end float64
	// member holds each member's busy seconds on the batch.
	member []float64
	calls  []call
}

func (b batchSpan) dur() float64 { return b.end - b.start }

// groupBatches folds member calls into batch spans, per shard in time
// order. An engine waits for every member of a batch before it fires the
// next, so in start order the calls of one batch are contiguous.
func groupBatches(calls []call, shards, members int) [][]batchSpan {
	sorted := append([]call(nil), calls...)
	sort.SliceStable(sorted, func(a, b int) bool {
		if sorted[a].shard != sorted[b].shard {
			return sorted[a].shard < sorted[b].shard
		}
		return sorted[a].start < sorted[b].start
	})
	out := make([][]batchSpan, shards)
	for _, c := range sorted {
		bs := out[c.shard]
		// A new key, or a member already seen, opens the next batch: a
		// shard with one batch per replay repeats its key across replays.
		if n := len(bs); n == 0 || bs[n-1].key != c.key || bs[n-1].member[c.member] > 0 {
			bs = append(bs, batchSpan{key: c.key, start: c.start, end: c.end, member: make([]float64, members)})
		}
		b := &bs[len(bs)-1]
		b.start = math.Min(b.start, c.start)
		b.end = math.Max(b.end, c.end)
		b.member[c.member] += c.end - c.start
		b.calls = append(b.calls, c)
		out[c.shard] = bs
	}
	return out
}
