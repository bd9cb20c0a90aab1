package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"spm/internal/cluster"
	"spm/internal/service"
)

// clusterPoll is the coordinator's job-status poll cadence: short, so the
// poll does not dominate the latency of a shard that takes tens of
// milliseconds.
const clusterPoll = 2 * time.Millisecond

// jobHistory is the finished-job history the measured services keep
// (service.Config.MaxJobs). Finished results stay in memory, sharded ones
// with their evidence tables, so under the default bound of 4096 the
// resident set would grow with how many jobs finished in the window, and
// a faster build would read as a heavier one. 256 fills within the first
// seconds of a window, so peak_rss_mb measures a full history either way.
const jobHistory = 256

// node is one in-process spm serve node behind a loopback listener.
type node struct {
	svc *service.Service
	srv *httptest.Server
}

func startNode(cfg service.Config) *node {
	svc := service.New(cfg)
	return &node{svc: svc, srv: httptest.NewServer(svc.Handler())}
}

func (n *node) close() {
	n.srv.Close()
	n.svc.Close()
}

// clusterMerge is one caller driving a fixed-mode coordinator over two
// in-process nodes, one check at a time.
type clusterMerge struct {
	specs  []*spec
	order  []int
	nodes  []*node
	client *http.Client
	coord  *cluster.Coordinator
}

func newClusterMerge(specs []*spec, r *rand.Rand) *clusterMerge {
	return &clusterMerge{specs: specs, order: r.Perm(len(specs))}
}

func (w *clusterMerge) corpus() []*spec     { return w.specs }
func (w *clusterMerge) fingerprint() string { return fingerprint(w.specs) }

// setup starts the nodes and the coordinator, then warms up with one
// distributed check per spec.
func (w *clusterMerge) setup(ctx context.Context) error {
	var urls []string
	for i := 0; i < 2; i++ {
		n := startNode(service.Config{Pools: 1, SweepWorkers: 1, MaxJobs: jobHistory})
		w.nodes = append(w.nodes, n)
		urls = append(urls, n.srv.URL)
	}
	w.client = &http.Client{Timeout: 60 * time.Second}
	var err error
	if w.coord, err = cluster.New(cluster.Config{Nodes: urls, Poll: clusterPoll, Client: w.client}); err != nil {
		return err
	}
	for _, s := range w.specs {
		if _, err := w.coord.Check(ctx, s.request()); err != nil {
			return fmt.Errorf("warm-up %s: %w", s.Name, err)
		}
	}
	return nil
}

func (w *clusterMerge) teardown() {
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	for _, n := range w.nodes {
		n.close()
	}
	w.nodes, w.coord, w.client = nil, nil, nil
}

// clusterLayer is what a distributed window reports about the cluster hop.
type clusterLayer struct {
	nodeRun    time.Duration // Σ node job run time
	nodes      int
	wall       time.Duration
	retries    int
	speculated int
}

func (w *clusterMerge) measure(ctx context.Context, d time.Duration, tr *tracer, lw *layerWindow) (*window, error) {
	var before []map[string]float64
	if lw != nil {
		for _, n := range w.nodes {
			m, err := scrape(ctx, w.client, n.srv.URL)
			if err != nil {
				return nil, err
			}
			before = append(before, m)
		}
	}
	win := newWindow()
	for i := 0; time.Since(win.start) < d; i++ {
		s := w.specs[w.order[i%len(w.order)]]
		id := tr.begin("cluster.Coordinator.Check", fmt.Sprintf("%s#%d", s.Name, i), 0)
		t0 := time.Now()
		rep, err := w.coord.Check(ctx, s.request())
		lat := time.Since(t0)
		tr.end(id)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		win.add(&sample{spec: s, class: s.Name, lat: lat, err: err, report: rep})
		if lw != nil && rep != nil {
			lw.cluster.retries += rep.Retries
			lw.cluster.speculated += rep.Speculated
		}
	}
	win.finish()
	if lw != nil {
		total := make(map[string]float64)
		for i, n := range w.nodes {
			after, err := scrape(ctx, w.client, n.srv.URL)
			if err != nil {
				return nil, err
			}
			for k, v := range delta(after, before[i]) {
				total[k] += v
			}
		}
		lw.fromMetrics(total, len(w.nodes))
		lw.cluster.nodeRun = seconds(total["spm_job_run_seconds_sum"])
		lw.cluster.nodes = len(w.nodes)
		lw.cluster.wall = win.elapsed
	}
	return win, nil
}
