package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"spm/internal/check"
	"spm/internal/core"
)

// inproc is a workload that calls check.Run directly: check-fold and
// check-exec. One caller issues verdicts back to back, cycling through
// the corpus in a seeded order.
type inproc struct {
	specs   []*spec
	order   []int
	workers int
	built   []*built
}

func newInproc(specs []*spec, r *rand.Rand, workers int) *inproc {
	return &inproc{specs: specs, order: r.Perm(len(specs)), workers: workers}
}

func (w *inproc) corpus() []*spec     { return w.specs }
func (w *inproc) fingerprint() string { return fingerprint(w.specs) }

func (w *inproc) opts() []check.Option {
	return []check.Option{check.WithWorkers(w.workers), check.WithBatch(sweepBatch)}
}

// setup parses, instruments and compiles the corpus, then warms it up
// with one verdict per spec.
func (w *inproc) setup(ctx context.Context) error {
	w.built = w.built[:0]
	for _, s := range w.specs {
		b, err := build(s)
		if err != nil {
			return err
		}
		w.built = append(w.built, b)
	}
	for _, b := range w.built {
		if _, err := check.Run(ctx, b.checkSpec(b.spec.Kind), w.opts()...); err != nil {
			return fmt.Errorf("warm-up %s: %w", b.spec.Name, err)
		}
	}
	return nil
}

func (w *inproc) teardown() {}

// busyObserver sums chunk durations across sweep workers.
type busyObserver struct{ ns atomic.Int64 }

func (b *busyObserver) ChunkDone(_, _ int, d time.Duration) { b.ns.Add(int64(d)) }

// measure issues verdicts until d has passed. A traced run records a
// span per call and passes the execution-tier tally and chunk observer.
func (w *inproc) measure(ctx context.Context, d time.Duration, tr *tracer, lw *layerWindow) (*window, error) {
	opts := w.opts()
	var tally core.ExecTally
	var busy busyObserver
	if lw != nil {
		opts = append(opts, check.WithExecTally(&tally), check.WithObserver(&busy))
	}
	win := newWindow()
	for i := 0; time.Since(win.start) < d; i++ {
		b := w.built[w.order[i%len(w.order)]]
		id := tr.begin("check.Run", fmt.Sprintf("%s#%d", b.spec.Name, i), 0)
		t0 := time.Now()
		v, err := check.Run(ctx, b.checkSpec(b.spec.Kind), opts...)
		lat := time.Since(t0)
		tr.end(id)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		win.add(&sample{spec: b.spec, class: b.spec.Name, lat: lat, err: err, verdicts: []check.Verdict{v}, exact: w.workers == 1})
	}
	win.finish()
	if lw != nil {
		lw.exec = tally.Counts()
		lw.busy = time.Duration(busy.ns.Load())
		lw.workers = w.workers
		for _, s := range win.samples {
			lw.tuples += s.spec.tuples() * s.spec.Kind.Passes()
		}
	}
	return win, nil
}
