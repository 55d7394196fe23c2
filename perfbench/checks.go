package main

import (
	"reflect"
	"sort"

	"bicriteria/internal/grid"
	"bicriteria/internal/lowerbound"
	"bicriteria/internal/moldable"
	"bicriteria/internal/online"
)

// quality holds the paper's two criteria of a replay, each as the mean
// over batches of the committed value over its lower bound.
type quality struct {
	cmaxGap, minsumGap float64
	// batchJobs lists every batch's size, all shards together.
	batchJobs []float64
}

// checkReport verifies a replay of jobs: every job sits in exactly one
// committed batch and is placed exactly once, and every batch's makespan
// and weighted completion stay at or above their lower bounds. It
// returns the mean gaps to those bounds.
func checkReport(res *result, what string, rep *grid.Report, jobs []online.Job, shards []int) quality {
	byID := make(map[int]online.Job, len(jobs))
	for _, j := range jobs {
		byID[j.Task.ID] = j
	}
	inBatch := make(map[int]int, len(jobs))
	placed := make(map[int]int, len(jobs))
	var q quality
	var cmaxLow, minsumLow, unknown int
	for c, crep := range rep.Clusters {
		for _, br := range crep.Batches {
			batch := make([]online.Job, 0, len(br.Jobs))
			for _, id := range br.Jobs {
				inBatch[id]++
				if j, ok := byID[id]; ok {
					batch = append(batch, j)
				} else {
					unknown++
				}
			}
			// The engine builds a batch instance in stream order.
			sort.SliceStable(batch, func(a, b int) bool {
				if batch[a].Release != batch[b].Release {
					return batch[a].Release < batch[b].Release
				}
				return batch[a].Task.ID < batch[b].Task.ID
			})
			tasks := make([]moldable.Task, len(batch))
			for i, j := range batch {
				tasks[i] = j.Task
			}
			inst := moldable.NewInstance(shards[c], tasks)
			cg := br.PlannedMakespan / br.LowerBound
			wc := 0.0
			for _, cand := range br.Candidates {
				if cand.Name == br.Winner {
					wc = cand.WeightedCompletion
				}
			}
			mg := wc / lowerbound.MinsumSquashedArea(inst)
			if !(cg >= 1-moldable.Eps) {
				cmaxLow++
			}
			if !(mg >= 1-moldable.Eps) {
				minsumLow++
			}
			q.cmaxGap += cg
			q.minsumGap += mg
			q.batchJobs = append(q.batchJobs, float64(len(br.Jobs)))
		}
		for _, a := range crep.Schedule.Assignments {
			placed[a.TaskID]++
		}
	}
	if n := float64(len(q.batchJobs)); n > 0 {
		q.cmaxGap /= n
		q.minsumGap /= n
	}
	res.check(cmaxLow == 0, "%s: %d batches have a makespan below the lower bound", what, cmaxLow)
	res.check(minsumLow == 0, "%s: %d batches have a weighted completion below the lower bound", what, minsumLow)
	once := unknown == 0 && len(inBatch) == len(jobs) && len(placed) == len(jobs)
	for _, j := range jobs {
		once = once && inBatch[j.Task.ID] == 1 && placed[j.Task.ID] == 1
	}
	res.check(once, "%s: not every one of the %d jobs was batched and placed exactly once", what, len(jobs))
	return q
}

// sameReplay reports whether two replays agree on the grid metrics and
// every routing decision.
func sameReplay(a, b *grid.Report) bool {
	return reflect.DeepEqual(a.Metrics, b.Metrics) && reflect.DeepEqual(a.Decisions, b.Decisions)
}
