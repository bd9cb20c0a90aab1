package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"spm/internal/check"
	"spm/internal/cluster"
	"spm/internal/core"
	"spm/internal/service"
	"spm/internal/sweep"
)

// The ladder's rows. Each adds exactly one layer to the row before it,
// so a layer's self time is its row minus the row below; maximality is
// the fold's second verdict kind, compared against soundness.
const (
	rowRunner = iota
	rowPassCount
	rowSoundness
	rowMaximality
	rowService
	rowHTTP
	rowCluster
	nRows
)

var rowNames = [nRows]string{"runner", "passcount", "soundness", "maximality", "service", "http", "cluster"}

// sweepBatch is the batch width of every in-process check, the ladder's
// included: the service default, so in-process and service sweeps run the
// same tier.
const sweepBatch = service.DefaultSweepBatch

// ladder runs every corpus spec through every row, round-robin, until
// its time is up (at least once), keeping per-row times, allocation
// counts and the verdicts for the oracle.
type ladder struct {
	built   []*built
	times   [][nRows][]float64 // ms, per spec
	mallocs [][nRows]uint64    // per call, last round
	steps   []int64            // runner row: Σ Result.Steps per pass
	merge   []float64          // µs of check.Merge on two shard verdicts, per spec
	samples []*sample          // every verdict the ladder produced
	rounds  int

	node   *node
	client *http.Client
	coord  *cluster.Coordinator
	// The cluster row's node-side job run time and wall time, for
	// cluster.coord_overhead_frac when the workload has no cluster.
	nodeRun, clusterWall time.Duration
	retries, speculated  int
	// HTTP row: POST round trip, job run time, and the rest, in ms.
	ack, run, wait []float64
	// The node's compile-cache counters after every round.
	cache service.CacheStats
}

func runLadder(ctx context.Context, specs []*spec, d time.Duration, tr *tracer) (*ladder, error) {
	l := &ladder{}
	for _, s := range specs {
		b, err := build(s)
		if err != nil {
			return nil, err
		}
		l.built = append(l.built, b)
	}
	l.times = make([][nRows][]float64, len(specs))
	l.mallocs = make([][nRows]uint64, len(specs))
	l.steps = make([]int64, len(specs))
	l.node = startNode(service.Config{Pools: 1, SweepWorkers: 1})
	defer l.node.close()
	l.client = newClient()
	defer l.client.CloseIdleConnections()
	ccl := &http.Client{Timeout: 60 * time.Second}
	defer ccl.CloseIdleConnections()
	var err error
	if l.coord, err = cluster.New(cluster.Config{Nodes: []string{l.node.srv.URL}, Shards: 2, Poll: clusterPoll, Client: ccl}); err != nil {
		return nil, err
	}
	start := time.Now()
	for l.rounds == 0 || time.Since(start) < d {
		for i, b := range l.built {
			for row := 0; row < nRows; row++ {
				if err := l.step(ctx, i, b, row, tr); err != nil {
					return nil, fmt.Errorf("ladder %s %s: %w", b.spec.Name, rowNames[row], err)
				}
			}
		}
		l.rounds++
	}
	l.cache = l.node.svc.Stats().Cache
	for _, b := range l.built {
		if err := l.timeMerge(ctx, b); err != nil {
			return nil, fmt.Errorf("merge %s: %w", b.spec.Name, err)
		}
	}
	return l, nil
}

// step runs one row for one spec, timing the call from outside.
func (l *ladder) step(ctx context.Context, i int, b *built, row int, tr *tracer) error {
	s := b.spec
	sound := *s
	sound.Kind = check.Soundness
	reqID := fmt.Sprintf("ladder/%s/%s#%d", s.Name, rowNames[row], l.rounds)
	opts := []check.Option{check.WithWorkers(1), check.WithBatch(sweepBatch)}
	var before map[string]float64
	if row == rowCluster {
		var err error
		if before, err = scrape(ctx, l.client, l.node.srv.URL); err != nil {
			return err
		}
	}
	_, m0 := memCounters()
	id := tr.begin("ladder."+rowNames[row], reqID, 0)
	t0 := time.Now()
	var smp *sample
	var err error
	switch row {
	case rowRunner:
		l.steps[i], err = runnerPass(b, sweepBatch)
	case rowPassCount, rowSoundness, rowMaximality:
		kind := []check.Kind{rowPassCount: check.PassCount, rowSoundness: check.Soundness, rowMaximality: check.Maximality}[row]
		var v check.Verdict
		v, err = check.Run(ctx, b.checkSpec(kind), opts...)
		k := *s
		k.Kind = kind
		smp = &sample{spec: &k, verdicts: []check.Verdict{v}, exact: true}
	case rowService:
		var j *service.Job
		if j, err = l.node.svc.Submit(sound.request()); err == nil {
			select {
			case <-j.Done():
			case <-ctx.Done():
				return ctx.Err()
			}
			st := j.Status()
			if st.State != service.StateDone {
				err = fmt.Errorf("job %s ended %s: %s", j.ID, st.State, st.Error)
			}
			smp = &sample{spec: &sound, result: st.Result}
		}
	case rowHTTP:
		var st *service.JobStatus
		var ack time.Duration
		st, _, ack, err = submitHTTP(ctx, l.client, l.node.srv.URL, sound.request(), tr, id, reqID)
		if err == nil {
			smp = &sample{spec: &sound, result: st.Result, ack: ack, run: seconds(st.ElapsedSeconds)}
		}
	case rowCluster:
		var rep *cluster.Report
		if rep, err = l.coord.Check(ctx, sound.request()); err == nil {
			smp = &sample{spec: &sound, report: rep}
			l.retries += rep.Retries
			l.speculated += rep.Speculated
		}
	}
	lat := time.Since(t0)
	tr.end(id)
	_, m1 := memCounters()
	if err != nil {
		return err
	}
	switch row {
	case rowHTTP:
		l.ack = append(l.ack, ms(smp.ack))
		l.run = append(l.run, ms(smp.run))
		l.wait = append(l.wait, ms(lat-smp.ack-smp.run))
	case rowCluster:
		after, err := scrape(ctx, l.client, l.node.srv.URL)
		if err != nil {
			return err
		}
		l.nodeRun += seconds(delta(after, before)["spm_job_run_seconds_sum"])
		l.clusterWall += lat
	}
	l.times[i][row] = append(l.times[i][row], ms(lat))
	l.mallocs[i][row] = m1 - m0
	if smp != nil {
		smp.lat = lat
		l.samples = append(l.samples, smp)
	}
	return nil
}

// runnerPass executes the spec's mechanism over its whole domain exactly
// as one sweep worker would — odometer order, DefaultChunk-sized chunks,
// strides of width along the innermost axis with the carry-depth hint —
// but with no sweep engine and no fold: the runner-only row. It returns
// Σ Result.Steps.
func runnerPass(b *built, width int) (int64, error) {
	run := b.mech.BatchRunners(width, true, true, nil)
	if run == nil {
		return 0, fmt.Errorf("%s: mechanism has no batch form", b.spec.Name)
	}
	exec := run()
	vals := [][]int64(b.dom)
	k := len(vals)
	size := sweep.Size(vals)
	out := make([]core.Outcome, width)
	idx := make([]int, k)
	buf := make([]int64, k)
	inner := vals[k-1]
	var steps int64
	for start := 0; start < size; start += sweep.DefaultChunk {
		end := min(start+sweep.DefaultChunk, size)
		rem := start
		for i := k - 1; i >= 0; i-- {
			idx[i] = rem % len(vals[i])
			buf[i] = vals[i][idx[i]]
			rem /= len(vals[i])
		}
		carry := 0 // a chunk's first tuple shares nothing with the previous
		for pos := start; pos < end; {
			j := idx[k-1]
			n := min(len(inner)-j, width, end-pos)
			buf[k-1] = inner[j]
			if err := exec(buf, inner[j:j+n:j+n], carry, out[:n]); err != nil {
				return 0, err
			}
			for _, o := range out[:n] {
				steps += o.Steps
			}
			pos += n
			if j += n; j < len(inner) {
				idx[k-1] = j
				carry = k - 1
				continue
			}
			idx[k-1], carry = 0, 0
			for i := k - 2; i >= 0; i-- {
				if idx[i]++; idx[i] < len(vals[i]) {
					buf[i] = vals[i][idx[i]]
					carry = i
					break
				}
				idx[i] = 0
				buf[i] = vals[i][0]
			}
		}
	}
	return steps, nil
}

// timeMerge splits the spec's soundness (or, for maximality specs,
// maximality) check into two shards and times check.Merge on them.
func (l *ladder) timeMerge(ctx context.Context, b *built) error {
	kind := check.Soundness
	if b.spec.Kind == check.Maximality {
		kind = check.Maximality
	}
	n := b.spec.tuples()
	var parts []check.Verdict
	for _, sh := range []check.Shard{{Offset: 0, Count: n / 2}, {Offset: n / 2, Count: n - n/2}} {
		sp := b.checkSpec(kind)
		sp.Shard = sh
		v, err := check.Run(ctx, sp, check.WithWorkers(1), check.WithBatch(sweepBatch))
		if err != nil {
			return err
		}
		parts = append(parts, v)
	}
	var times []float64
	var merged check.Verdict
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		v, err := check.Merge(parts...)
		times = append(times, float64(time.Since(t0))/float64(time.Microsecond))
		if err != nil {
			return err
		}
		merged = v
	}
	l.merge = append(l.merge, median(times))
	k := *b.spec
	k.Kind = kind
	l.samples = append(l.samples, &sample{spec: &k, verdicts: []check.Verdict{merged}})
	return nil
}
