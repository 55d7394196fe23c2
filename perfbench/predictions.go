package main

// notePredictions compares a traced run with the predictions written down
// before the benchmark was first run. A missed prediction is reported as
// a note, never tuned away; it is not a failed check. visibleP50 is the
// traced window's visible_p50_s on the live workload.
func notePredictions(res *result, w spec, jobs int, visibleP50 float64) {
	verdict := func(ok bool) string {
		if ok {
			return "met"
		}
		return "NOT met"
	}
	if share := res.values["cluster.portfolio_share"]; w.PortfolioShare != 0 {
		above := share > 0.5
		want := "<"
		if w.PortfolioShare > 0 {
			want = ">"
		}
		res.note("prediction cluster.portfolio_share %s 0.5: %.3f, %s", want, share, verdict(above == (w.PortfolioShare > 0)))
	}
	if w.Live {
		gap := res.values["serve.refresh_gap_p50_s"]
		res.note("prediction serve.refresh_gap_p50_s >= visible_p50_s / 2: %.3fs vs %.3fs / 2, %s", gap, visibleP50, verdict(gap >= visibleP50/2))
		return
	}
	res.note("prediction input: cluster.engine_self_s per job %.1f us (predicted higher on trickle than on wide-batches)",
		res.values["cluster.engine_self_s"]/float64(jobs)*1e6)
}
