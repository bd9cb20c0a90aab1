// Command perfbench is the repository's benchmark: four seeded workloads
// driven through spm's public entry points — check.Run, POST /v2/check and
// cluster.Coordinator.Check — with every verdict checked against the
// tree-walking interpreter.
//
//	go run . --workload check-fold --seed 1 --seconds 15 --trace 0
//
// It prints each metric by name and unit, then one JSON line with the
// end-to-end metrics (--trace 0) or the per-layer metrics of the traced
// run and its layer ladder (--trace 1). A verdict that disagrees with the
// interpreter makes it exit 1, naming the workload. LEDGER.md records what
// each workload and metric is for.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"spm/internal/check"
	"spm/internal/cluster"
	"spm/internal/core"
	"spm/internal/service"
)

// workload is one seeded traffic shape.
type workload interface {
	// corpus lists the distinct specs the workload draws from (for
	// serve-mix, its repeated programs and a prefix of its fresh ones):
	// the ladder and the compile timing run over these.
	corpus() []*spec
	// fingerprint identifies the generated inputs.
	fingerprint() string
	// setup builds the system under test and warms it; teardown closes
	// whatever setup started.
	setup(ctx context.Context) error
	teardown()
	// measure drives timed traffic for d. With lw non-nil it is the
	// traced run and fills lw with the layer counters it can read.
	measure(ctx context.Context, d time.Duration, tr *tracer, lw *layerWindow) (*window, error)
}

// sample is one timed verdict.
type sample struct {
	spec     *spec
	class    string // the request class latencies are compared within
	lat      time.Duration
	err      error           // the call failed or was refused
	verdicts []check.Verdict // in-process verdicts
	result   *service.Result // a service job's result
	report   *cluster.Report // a distributed check's report
	exact    bool            // one sweep worker: witnesses are deterministic
	// serve-mix: POST round trip, job run time, and store-hit reply.
	ack, run time.Duration
	storeHit bool
}

// window is one timed stretch of traffic.
type window struct {
	start   time.Time
	elapsed time.Duration
	mu      sync.Mutex
	samples []*sample
	alloc   uint64
}

func newWindow() *window {
	w := &window{}
	w.alloc, _ = memCounters()
	w.start = time.Now()
	return w
}

func (w *window) add(s *sample) {
	w.mu.Lock()
	w.samples = append(w.samples, s)
	w.mu.Unlock()
}

func (w *window) finish() {
	w.elapsed = time.Since(w.start)
	a, _ := memCounters()
	w.alloc = a - w.alloc
}

// layerWindow carries the layer counters a traced window reads.
type layerWindow struct {
	exec    core.ExecCounts
	busy    time.Duration // Σ chunk durations
	workers int           // sweep workers the chunks ran on
	tuples  int64         // tuples swept (the denominator of the exec fractions)
	service serviceLayer
	cluster clusterLayer
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool
	fault    bool
	workdir  string
}

var workloads = []string{"check-fold", "check-exec", "serve-mix", "cluster-merge"}

// newWorkload generates the named workload from the seed.
func newWorkload(o *options, z sizes, dir string) (workload, error) {
	r := rand.New(rand.NewSource(o.seed))
	switch o.workload {
	case "check-fold":
		return newInproc(foldCorpus(r, z), r, 1), nil
	case "check-exec":
		return newInproc(execCorpus(r, z), r, 2), nil
	case "serve-mix":
		return newServeMix(o.seed, z, dir), nil
	case "cluster-merge":
		return newClusterMerge(mergeCorpus(r, z), r), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloads, ", "))
}

func main() {
	o := &options{}
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed generates the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 15, "length of the timed window in seconds")
	traceFlag := flag.Int("trace", 0, "1: traced run with per-layer metrics and the layer ladder")
	flag.BoolVar(&o.tiny, "tiny", false, "tiny input sizes (the smoke test)")
	flag.BoolVar(&o.fault, "inject-fault", false, "make the oracle expect a wrong verdict for one spec (the smoke test)")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for the run's scratch files and span dumps")
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, not %d\n", *traceFlag)
		os.Exit(2)
	}
	o.trace = *traceFlag == 1
	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
}

// deadline bounds a whole run. Its context is cancelled then, and a
// watchdog ends the process 10 s later if cancellation did not, so a hang
// fails loudly well inside the 180 s a run may take.
const deadline = 150 * time.Second

// run is the whole benchmark run.
func run(o *options) error {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	watchdog := time.AfterFunc(deadline+10*time.Second, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no result within the %v deadline\n", o.workload, deadline)
		os.RemoveAll(dir)
		os.Exit(3)
	})
	defer watchdog.Stop()

	z := fullSizes
	if o.tiny {
		z = tinySizes
	}
	w, err := newWorkload(o, z, dir)
	if err != nil {
		return err
	}
	orc := newOracle()
	orc.fault = o.fault
	fmt.Printf("workload %s seed %d corpus %s (%d distinct specs)\n", o.workload, o.seed, w.fingerprint(), len(w.corpus()))
	window := time.Duration(o.seconds * float64(time.Second))
	var res *result
	if o.trace {
		res, err = tracedRun(ctx, o, w, orc, window)
	} else {
		res, err = untracedRun(ctx, w, orc, window)
	}
	if err != nil {
		return err
	}
	res.print()
	if res.failed > 0 {
		return fmt.Errorf("%d of %d verdicts failed or disagreed with the interpreter; first: %v", res.failed, res.attempted, res.firstErr)
	}
	return nil
}

// A run sets the system up at least minSetupReps times and for at least
// setupBudget, up to maxSetupReps times; setup_s is the median. Short
// set-ups are repeated more, so every workload's median rests on about
// the same span of machine time.
const (
	minSetupReps = 5
	maxSetupReps = 41
	setupBudget  = 3 * time.Second
)

// untracedRun measures the end-to-end metrics.
func untracedRun(ctx context.Context, w workload, orc *oracle, d time.Duration) (*result, error) {
	var setups []float64
	for i := 0; i < maxSetupReps && (i < minSetupReps || sum(setups) < setupBudget.Seconds()); i++ {
		if i > 0 {
			w.teardown()
		}
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			w.teardown()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	// Discarded traffic before the timed window. A fresh service's
	// garbage collector paces itself off a small heap at first, which
	// makes its first seconds slower than the rest.
	if _, err := w.measure(ctx, d/5, nil, nil); err != nil {
		w.teardown()
		return nil, err
	}
	win, err := w.measure(ctx, d, nil, nil)
	w.teardown()
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res := &result{rep: newReport()}
	res.verify(ctx, orc, win)
	res.endToEnd(win, median(setups), rss)
	res.notes = append(res.notes, fmt.Sprintf("%d setup runs %.4v s; oracle decided %d distinct verdicts on the interpreter", len(setups), setups, orc.decided()))
	return res, nil
}

// result is what a run prints.
type result struct {
	rep       *report
	attempted int
	failed    int
	firstErr  error
	notes     []string
}

// verify checks every sample of win against the oracle, deciding the
// distinct verdicts it needs on two goroutines first.
func (r *result) verify(ctx context.Context, orc *oracle, win *window) {
	type need struct {
		s    *spec
		kind check.Kind
	}
	seen := make(map[string]bool)
	var needs []need
	for _, smp := range win.samples {
		kinds := []check.Kind{smp.spec.Kind}
		if smp.result != nil || smp.report != nil {
			kinds = []check.Kind{check.Soundness}
			if smp.spec.Kind == check.Maximality {
				kinds = append(kinds, check.Maximality)
			}
		}
		for _, k := range kinds {
			key := fmt.Sprintf("%v#%s", k, smp.spec.key())
			if !seen[key] {
				seen[key] = true
				needs = append(needs, need{smp.spec, k})
			}
		}
	}
	var wg sync.WaitGroup
	next := make(chan need)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range next {
				orc.want(ctx, n.s, n.kind) // errors resurface in compare
			}
		}()
	}
	for _, n := range needs {
		next <- n
	}
	close(next)
	wg.Wait()

	for _, smp := range win.samples {
		r.attempted++
		err := smp.err
		if err == nil {
			err = checkSample(ctx, orc, smp)
		}
		if err != nil {
			r.failed++
			if r.firstErr == nil {
				r.firstErr = err
			}
		}
	}
}

func checkSample(ctx context.Context, orc *oracle, smp *sample) error {
	switch {
	case smp.result != nil:
		return orc.compareService(ctx, smp.spec, smp.result)
	case smp.report != nil:
		rep := smp.report
		if !rep.Complete {
			// A shard's definitive counterexample short-circuits the
			// rest: only the unsound verdict and its witnesses are whole.
			if rep.Soundness.Sound {
				return fmt.Errorf("%s: distributed check incomplete (%d/%d shards) without a counterexample", smp.spec.Name, rep.Completed, rep.Shards)
			}
			v := rep.Soundness
			v.Checked = -1
			return orc.compare(ctx, smp.spec, v, false)
		}
		if err := orc.compare(ctx, smp.spec, rep.Soundness, false); err != nil {
			return err
		}
		if smp.spec.Kind == check.Maximality {
			if rep.Maximality == nil {
				return fmt.Errorf("%s: distributed check without a maximality verdict", smp.spec.Name)
			}
			return orc.compare(ctx, smp.spec, *rep.Maximality, false)
		}
		return nil
	}
	for _, v := range smp.verdicts {
		if err := orc.compare(ctx, smp.spec, v, smp.exact); err != nil {
			return err
		}
	}
	return nil
}

// endToEnd fills the end-to-end metrics from the untraced window.
func (r *result) endToEnd(win *window, setup, rss float64) {
	var lat []float64
	for _, s := range win.samples {
		if s.err == nil {
			lat = append(lat, ms(s.lat))
		}
	}
	good := r.attempted - r.failed
	r.rep.set("setup_s", setup, "s")
	r.rep.set("verdicts_per_s", float64(good)/win.elapsed.Seconds(), "1/s")
	r.rep.set("verdict_p50_ms", quantile(lat, 0.5), "ms")
	r.rep.set("verdict_p90_ms", quantile(lat, 0.9), "ms")
	r.rep.set("alloc_kb_per_verdict", float64(win.alloc)/1024/float64(max(good, 1)), "KiB")
	r.rep.set("peak_rss_mb", rss, "MiB")
	beyond := len(lat) - int(0.9*float64(len(lat)))
	r.notes = append(r.notes,
		fmt.Sprintf("%d verdicts in %.2fs (%d samples, %d beyond p90)", len(win.samples), win.elapsed.Seconds(), len(lat), beyond),
		fmt.Sprintf("fail_frac %.6f (%d failed of %d attempted)", float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted),
		fmt.Sprintf("tuples per verdict: %s", tupleMix(win)),
		"verdict p50 ms (samples) by request class: "+classSummary(win))
	if beyond < 10 {
		r.notes = append(r.notes, fmt.Sprintf("WARNING: only %d samples beyond p90 (want at least 10)", beyond))
	}
}

// classSummary gives each request class's median latency and sample
// count, so a claim about one class does not hang on the mix.
func classSummary(win *window) string {
	counts := make(map[string]int)
	for _, s := range win.samples {
		counts[s.class]++
	}
	var parts []string
	for c, v := range classMedians(win) {
		parts = append(parts, fmt.Sprintf("%s=%.3f (%d)", c, v, counts[c]))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// tupleMix summarises the verdict sizes a window measured.
func tupleMix(win *window) string {
	counts := make(map[int64]int)
	for _, s := range win.samples {
		counts[s.spec.tuples()]++
	}
	var sizes []int64
	for n := range counts {
		sizes = append(sizes, n)
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	var parts []string
	for _, n := range sizes {
		parts = append(parts, fmt.Sprintf("%d×%d", counts[n], n))
	}
	return strings.Join(parts, " ")
}

// print writes the metric lines, then the JSON result line last.
func (r *result) print() {
	for _, n := range r.notes {
		fmt.Println("# " + n)
	}
	for _, name := range r.rep.names {
		m := r.rep.metrics[name]
		fmt.Printf("%-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, r.rep.metrics}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// spanPath is where a traced run dumps its spans.
func spanPath(o *options) string {
	return filepath.Join(o.workdir, "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
}

func writeSpans(o *options, tr *tracer) error {
	p := spanPath(o)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	if err := tr.write(p); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

var errNoSamples = errors.New("no verdict completed in the timed window")
