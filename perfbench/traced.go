package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"
)

// tracedRun is --trace 1: a traced window of a quarter of the time
// between two untraced windows of an eighth each (so drift cancels; the
// ratio of the two is the tracing overhead), then the layer ladder over
// every corpus spec for the remaining half, or one full round if that
// takes longer. Every verdict of all of them goes through the oracle.
func tracedRun(ctx context.Context, o *options, w workload, orc *oracle, d time.Duration) (*result, error) {
	compile, err := timeCompile(w.corpus())
	if err != nil {
		return nil, err
	}
	if err := w.setup(ctx); err != nil {
		w.teardown()
		return nil, fmt.Errorf("setup: %w", err)
	}
	// A discarded window first, as in the untraced run.
	if _, err := w.measure(ctx, d/16, nil, nil); err != nil {
		w.teardown()
		return nil, err
	}
	tr := newTracer()
	lw := &layerWindow{}
	var untraced, traced []*window
	for _, phase := range []struct {
		d      time.Duration
		traced bool
	}{{d / 8, false}, {d / 4, true}, {d / 8, false}} {
		var win *window
		if phase.traced {
			win, err = w.measure(ctx, phase.d, tr, lw)
			traced = append(traced, win)
		} else {
			win, err = w.measure(ctx, phase.d, nil, nil)
			untraced = append(untraced, win)
		}
		if err != nil {
			w.teardown()
			return nil, err
		}
	}
	w.teardown()
	lad, err := runLadder(ctx, w.corpus(), d/2, tr)
	if err != nil {
		return nil, err
	}
	res := &result{rep: newReport()}
	u, t := joinWindows(untraced), joinWindows(traced)
	for _, win := range []*window{u, t, {samples: lad.samples}} {
		res.verify(ctx, orc, win)
	}
	if len(u.samples) == 0 || len(t.samples) == 0 {
		return nil, errNoSamples
	}
	res.layers(compile, u, t, lw, lad)
	res.notes = append(res.notes, ladderTable(u, lad)...)
	res.notes = append(res.notes, spanTable(tr)...)
	if err := writeSpans(o, tr); err != nil {
		return nil, err
	}
	res.notes = append(res.notes, fmt.Sprintf("spans written to %s; oracle decided %d distinct verdicts", spanPath(o), orc.decided()))
	return res, nil
}

// joinWindows concatenates windows into one.
func joinWindows(ws []*window) *window {
	out := &window{}
	for _, w := range ws {
		out.samples = append(out.samples, w.samples...)
		out.elapsed += w.elapsed
		out.alloc += w.alloc
	}
	return out
}

// overhead is 1 − traced rate ÷ untraced rate, with each rate taken as
// the inverse of the summed per-class median latency over the request
// classes both windows saw, so a different mix in the two cannot pose as
// tracing cost.
func overhead(untraced, traced *window) float64 {
	mu, mt := classMedians(untraced), classMedians(traced)
	var su, st float64
	for c, u := range mu {
		if t, ok := mt[c]; ok {
			su += u
			st += t
		}
	}
	return 1 - su/st
}

// classMedians is the median latency of each request class, in ms.
func classMedians(win *window) map[string]float64 {
	by := make(map[string][]float64)
	for _, s := range win.samples {
		by[s.class] = append(by[s.class], ms(s.lat))
	}
	out := make(map[string]float64, len(by))
	for k, v := range by {
		out[k] = median(v)
	}
	return out
}

// timeCompile times parse + instrument + Compile per corpus program and
// returns the median in µs.
func timeCompile(specs []*spec) (float64, error) {
	var us []float64
	for rep := 0; rep < 3; rep++ {
		for _, s := range specs {
			t0 := time.Now()
			if _, err := build(s); err != nil {
				return 0, err
			}
			us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
		}
	}
	return median(us), nil
}

// layers fills the per-layer metrics.
func (r *result) layers(compileUS float64, untraced, traced *window, lw *layerWindow, lad *ladder) {
	set := r.rep.set
	set("flowchart.compile_us", compileUS, "us")

	// Ladder sums over specs (per-spec medians), tuples of one pass.
	var row [nRows]float64
	var tuples, steps float64
	var allocs [nRows]float64
	for i, b := range lad.built {
		for k := 0; k < nRows; k++ {
			row[k] += median(lad.times[i][k])
			allocs[k] += float64(lad.mallocs[i][k])
		}
		tuples += float64(b.spec.tuples())
		steps += float64(lad.steps[i])
	}
	n := float64(len(lad.built))
	nsPerTuple := func(msSum float64) float64 { return msSum * 1e6 / tuples }
	set("flowchart.exec_ns_per_tuple", nsPerTuple(row[rowRunner]), "ns")
	set("flowchart.steps_per_tuple", steps/tuples, "steps")

	ex := lw.exec
	per := func(c int64) float64 { return float64(c) / float64(max(lw.tuples, 1)) }
	set("core.stack_full_frac", per(ex.StackFull), "frac")
	set("core.stack_const_frac", per(ex.StackConstants), "frac")
	set("core.stack_rowhit_frac", per(ex.StackRowHits), "frac")
	set("core.batch_lane_util", float64(ex.BatchLanes)/float64(max(ex.BatchStrides*sweepBatch, 1)), "frac")
	set("core.batch_diverge_frac", float64(ex.BatchDiverged)/float64(max(ex.BatchLanes, 1)), "frac")

	set("sweep.self_ns_per_tuple", nsPerTuple(row[rowPassCount]-row[rowRunner]), "ns")
	set("sweep.busy_frac", lw.busy.Seconds()/(float64(lw.workers)*traced.elapsed.Seconds()), "frac")

	fold := row[rowSoundness] - row[rowPassCount]
	set("check.fold_ns_per_tuple", nsPerTuple(fold), "ns")
	set("check.fold_over_exec", fold/row[rowRunner], "ratio")
	set("check.max_over_sound", row[rowMaximality]/row[rowSoundness], "ratio")
	set("check.allocs_per_tuple.soundness", allocs[rowSoundness]/tuples, "allocs")
	set("check.allocs_per_tuple.maximality", allocs[rowMaximality]/tuples, "allocs")
	set("check.allocs_per_tuple.passcount", allocs[rowPassCount]/tuples, "allocs")
	set("check.merge_us", median(lad.merge), "us")

	// The service layer: from the workload's own traffic when it has a
	// service in front (serve-mix), else from the ladder's HTTP row.
	var ack, run, wait, hitLat []float64
	for _, s := range traced.samples {
		if s.err != nil || s.result == nil {
			continue
		}
		ack = append(ack, ms(s.ack))
		run = append(run, ms(s.run))
		wait = append(wait, ms(s.lat-s.ack-s.run))
		if s.storeHit {
			hitLat = append(hitLat, ms(s.lat))
		}
	}
	if len(ack) == 0 {
		ack, run, wait = lad.ack, lad.run, lad.wait
	}
	set("service.ack_ms", median(ack), "ms")
	set("service.run_ms", median(run), "ms")
	set("service.wait_ms", median(wait), "ms")
	st0, st1 := lw.service.stats0, lw.service.stats1
	hits := float64(st1.Cache.Hits - st0.Cache.Hits)
	misses := float64(st1.Cache.Misses - st0.Cache.Misses)
	if hits+misses == 0 {
		// No service in the workload: the ladder's node.
		hits, misses = float64(lad.cache.Hits), float64(lad.cache.Misses)
	}
	set("service.compile_hit_frac", hits/(hits+misses), "frac")
	storeHit := 0.0
	if st1.Store != nil && st0.Store != nil && st1.Store.Lookups > st0.Store.Lookups {
		storeHit = float64(st1.Store.VerdictHits-st0.Store.VerdictHits) / float64(st1.Store.Lookups-st0.Store.Lookups)
	}
	set("service.store_hit_frac", storeHit, "frac")
	set("store.hit_p50_ms", median(hitLat), "ms")
	set("service.http_over_inproc", row[rowHTTP]/row[rowService], "ratio")

	cl := lw.cluster
	if cl.nodes == 0 {
		cl = clusterLayer{nodeRun: lad.nodeRun, nodes: 1, wall: lad.clusterWall, retries: lad.retries, speculated: lad.speculated}
	}
	set("cluster.coord_overhead_frac", 1-cl.nodeRun.Seconds()/(float64(cl.nodes)*cl.wall.Seconds()), "frac")
	set("cluster.retries", float64(cl.retries), "count")
	set("cluster.speculated", float64(cl.speculated), "count")

	set("obs.trace_overhead_frac", overhead(untraced, traced), "frac")

	// The ladder's self times, per spec on average, beside the untraced
	// verdict time they decompose.
	um := classMedians(untraced)
	verdicts := make([]float64, 0, len(um))
	for _, v := range um {
		verdicts = append(verdicts, v)
	}
	set("ladder.verdict_ms", sum(verdicts)/float64(len(verdicts)), "ms")
	set("ladder.runner_ms", row[rowRunner]/n, "ms")
	set("ladder.sweep_self_ms", (row[rowPassCount]-row[rowRunner])/n, "ms")
	set("ladder.fold_self_ms", fold/n, "ms")
	set("ladder.maximality_ms", row[rowMaximality]/n, "ms")
	set("ladder.service_self_ms", (row[rowService]-row[rowSoundness])/n, "ms")
	set("ladder.http_self_ms", (row[rowHTTP]-row[rowService])/n, "ms")
	set("ladder.cluster_self_ms", (row[rowCluster]-row[rowHTTP])/n, "ms")
}

// ladderTable prints each spec's ladder self times beside its untraced
// verdict time.
func ladderTable(untraced *window, lad *ladder) []string {
	um := classMedians(untraced)
	out := []string{fmt.Sprintf("ladder (%d rounds; ms, median per spec): spec kind tuples | untraced-verdict | runner +sweep +fold | maximality | +service +http +cluster", lad.rounds)}
	for i, b := range lad.built {
		var m [nRows]float64
		for k := range m {
			m[k] = median(lad.times[i][k])
		}
		verdict := "-"
		if v, ok := um[b.spec.Name]; ok {
			verdict = fmt.Sprintf("%.3f", v)
		}
		out = append(out, fmt.Sprintf("  %s %v %d | %s | %.3f %+.3f %+.3f | %.3f | %+.3f %+.3f %+.3f",
			b.spec.Name, b.spec.Kind, b.spec.tuples(), verdict,
			m[rowRunner], m[rowPassCount]-m[rowRunner], m[rowSoundness]-m[rowPassCount], m[rowMaximality],
			m[rowService]-m[rowSoundness], m[rowHTTP]-m[rowService], m[rowCluster]-m[rowHTTP]))
		delete(um, b.spec.Name)
	}
	// Request classes that are not corpus specs (serve-mix's).
	classes := make([]string, 0, len(um))
	for c, v := range um {
		classes = append(classes, fmt.Sprintf("%s=%.3f", c, v))
	}
	if len(classes) > 0 {
		sort.Strings(classes)
		out = append(out, "  untraced verdict ms by request class: "+strings.Join(classes, " "))
	}
	return out
}

// spanTable prints the traced run's self time per span name.
func spanTable(tr *tracer) []string {
	self := tr.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("%s=%.1fms", n, ms(self[n])))
	}
	return []string{"span self time: " + strings.Join(parts, " ")}
}
