package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"spm/internal/check"
	"spm/internal/service"
	"spm/internal/store"
)

// serveMix is a closed loop of two HTTP clients against an in-process
// store-backed service: each client posts a check, waits on the job's
// event stream for its verdict, then sends the next. The seeded request
// mix is compile misses (fresh programs, small domains), compile hits on
// fresh medium domains (a sweep and a store write each), and exact
// repeats answered from the verdict store.
type serveMix struct {
	seed    int64
	z       sizes
	dir     string
	pool    []*spec // the repeated programs
	gens    []*reqGen
	st      *store.Store
	stDir   string
	svc     *service.Service
	srv     *httptest.Server
	clients []*http.Client
}

// The request mix. Nothing in the repository records what real traffic
// looks like, so the three request types get equal shares: an unverified
// choice, which is why the run also prints each type's own p50. One
// request in maximalEvery also asks for maximality, as `spm loadgen`
// does by default (its -maximal-every flag).
const (
	maximalEvery = 4
	serveConns   = 2
	// poolSize is how many repeated programs the fresh-domain requests
	// draw from; warmDomains how many domains each is warmed on.
	poolSize    = 16
	warmDomains = 4
)

var mechs = []mechanism{mechUntimed, mechTimed, mechHighWater, mechRaw}

func newServeMix(seed int64, z sizes, dir string) *serveMix {
	r := rand.New(rand.NewSource(seed))
	w := &serveMix{seed: seed, z: z, dir: dir}
	for i := 0; i < poolSize; i++ {
		name := fmt.Sprintf("pool%d", i)
		w.pool = append(w.pool, &spec{
			Name: name, Kind: check.Soundness, Src: smallProgram(r, name, 3), Mech: mechs[i%len(mechs)],
			Allowed: randomPolicy(r), Values: distinctValues(r, z.MedValues, -64, 128), Arity: 3,
		})
	}
	for c := 0; c < serveConns; c++ {
		w.gens = append(w.gens, &reqGen{r: rand.New(rand.NewSource(seed*1000 + int64(c))), client: c, w: w})
	}
	return w
}

// randomPolicy is allow(J) for a random non-empty proper J ⊂ {1,2,3}.
func randomPolicy(r *rand.Rand) []int {
	policies := [][]int{{1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}}
	return policies[r.Intn(len(policies))]
}

// reqGen is one client's seeded request stream.
type reqGen struct {
	r       *rand.Rand
	client  int
	n       int
	w       *serveMix
	history []*spec
}

// next returns the client's next request and its class: "miss" (a fresh
// program), "fresh" (a repeated program on a fresh domain) or "repeat".
func (g *reqGen) next() (*spec, string) {
	g.n++
	roll := g.r.Intn(3)
	kind := check.Soundness
	if g.n%maximalEvery == 0 {
		kind = check.Maximality
	}
	switch {
	case roll == 0:
		name := fmt.Sprintf("c%dn%d", g.client, g.n)
		return &spec{
			Name: name, Kind: kind, Src: smallProgram(g.r, name, 3), Mech: mechs[g.n%len(mechs)],
			Allowed: randomPolicy(g.r), Values: distinctValues(g.r, g.w.z.SmallValues, -4, 12), Arity: 3,
		}, "miss"
	case roll == 1 || len(g.history) == 0:
		s := *g.w.pool[g.r.Intn(len(g.w.pool))]
		s.Name = fmt.Sprintf("%s-c%dn%d", s.Name, g.client, g.n)
		s.Kind = kind
		s.Values = distinctValues(g.r, g.w.z.MedValues, -64, 128)
		return &s, "fresh"
	}
	return g.history[g.r.Intn(len(g.history))], "repeat"
}

func (w *serveMix) corpus() []*spec { return w.pool }

// fingerprint covers the repeated programs and the first 64 requests of
// each client's stream, generated from fresh copies of the seeded streams.
func (w *serveMix) fingerprint() string {
	specs := append([]*spec(nil), w.pool...)
	for c := 0; c < serveConns; c++ {
		g := &reqGen{r: rand.New(rand.NewSource(w.seed*1000 + int64(c))), client: c, w: w}
		for i := 0; i < 64; i++ {
			s, _ := g.next()
			g.history = append(g.history, s)
			specs = append(specs, s)
		}
	}
	return fingerprint(specs)
}

// setup opens a fresh store, starts the service behind a loopback
// listener, and warms the compile cache with the repeated programs.
func (w *serveMix) setup(ctx context.Context) error {
	dir, err := os.MkdirTemp(w.dir, "store-")
	if err != nil {
		return err
	}
	w.stDir = dir
	if w.st, err = store.Open(dir); err != nil {
		return err
	}
	w.svc = service.New(service.Config{Pools: 2, SweepWorkers: 1, Store: w.st, MaxJobs: jobHistory})
	w.srv = httptest.NewServer(w.svc.Handler())
	w.clients = w.clients[:0]
	for c := 0; c < serveConns; c++ {
		w.clients = append(w.clients, newClient())
	}
	// Warm-up: every repeated program on a few domains of its own, from
	// each client, so caches and connections are hot before timing.
	r := rand.New(rand.NewSource(w.seed))
	for i := 0; i < warmDomains; i++ {
		for _, p := range w.pool {
			s := *p
			s.Values = distinctValues(r, len(p.Values), -64, 128)
			for _, c := range w.clients {
				if _, _, _, err := submitHTTP(ctx, c, w.srv.URL, s.request(), nil, 0, ""); err != nil {
					return fmt.Errorf("warm-up %s: %w", s.Name, err)
				}
			}
		}
	}
	return nil
}

func (w *serveMix) teardown() {
	for _, c := range w.clients {
		c.CloseIdleConnections()
	}
	if w.srv != nil {
		w.srv.Close()
		w.svc.Close()
	}
	if w.st != nil {
		w.st.Close()
	}
	if w.stDir != "" {
		os.RemoveAll(w.stDir)
	}
	w.srv, w.svc, w.st, w.stDir = nil, nil, nil, ""
}

// serviceLayer is the service's Stats() before and after a window.
type serviceLayer struct {
	stats0, stats1 service.Stats
}

func (w *serveMix) measure(ctx context.Context, d time.Duration, tr *tracer, lw *layerWindow) (*window, error) {
	var before map[string]float64
	if lw != nil {
		lw.service.stats0 = w.svc.Stats()
		var err error
		if before, err = scrape(ctx, w.clients[0], w.srv.URL); err != nil {
			return nil, err
		}
	}
	win := newWindow()
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func(g *reqGen, client *http.Client) {
			defer wg.Done()
			for time.Since(win.start) < d && ctx.Err() == nil {
				s, class := g.next()
				reqID := fmt.Sprintf("c%d#%d", g.client, g.n)
				root := tr.begin("request", reqID, 0)
				t0 := time.Now()
				st, sub, ack, err := submitHTTP(ctx, client, w.srv.URL, s.request(), tr, root, reqID)
				smp := &sample{spec: s, class: class, lat: time.Since(t0), err: err, ack: ack}
				tr.end(root)
				if err == nil {
					smp.result = st.Result
					smp.run = time.Duration(st.ElapsedSeconds * float64(time.Second))
					smp.storeHit = sub.CachedVerdict
					g.history = append(g.history, s)
				}
				win.add(smp)
			}
		}(w.gens[c], w.clients[c])
	}
	wg.Wait()
	win.finish()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if lw != nil {
		lw.service.stats1 = w.svc.Stats()
		after, err := scrape(ctx, w.clients[0], w.srv.URL)
		if err != nil {
			return nil, err
		}
		lw.fromMetrics(delta(after, before), 2) // Pools × SweepWorkers
	}
	return win, nil
}
