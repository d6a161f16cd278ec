package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"repro/internal/darco"
	"repro/internal/serve"
	"repro/internal/store"
)

// serveScale sizes every served job.
const serveScale = 0.25

// servePool lists the distinct jobs of a serve pass: every Mediabench
// program and four RV32I starters. Each pass submits each of them fresh
// exactly once.
var servePool = []string{
	"000.cjpeg", "001.djpeg", "002.h263dec", "003.h263enc", "004.h264dec", "005.h264enc",
	"006.jpg2000dec", "007.jpg2000enc", "008.mpeg2dec", "009.mpeg2enc", "010.mpeg4dec", "011.mpeg4enc",
	"rv32:400.perlbench", "rv32:401.bzip2", "rv32:429.mcf", "rv32:458.sjeng",
}

// The two tenants are the two callers docs/EXPERIMENTS.md ("Remote
// mode") shows on one darco-serve: a figure sweep (darco-figs -server),
// whose first run is all misses and whose reruns, before and after a
// server restart, are all hits; and single one-off jobs (darco -server
// -bench), each a distinct job.
const (
	sweepTenant  = 0
	oneoffTenant = 1
	serveTenants = 2
	// serveGrid is the number of jobs in the sweep tenant's grid; the
	// other jobs of the pool are one-offs.
	serveGrid = 12
)

// tenantNames are the tenants' X-Darco-Tenant names.
var tenantNames = [serveTenants]string{"sweeps", "oneoff"}

// request is one submission of a client.
type request struct {
	ref   string
	fresh bool // first submission of the job in the pass: a miss
}

// servePlan is the request mix: per tenant, the requests before and
// after the server restarts.
type servePlan struct {
	before, after [serveTenants][]request
}

// planServe builds the request mix. The sweep tenant runs its grid
// (all misses), reruns it (memory-cache hits), and after the restart
// reruns it once more (store reads). The one-off tenant submits half of
// its jobs before the restart and half after, so after the restart its
// misses write to the store while the sweep's hits read from it. The
// share of misses follows from these two patterns: 16 of 40 requests
// under every seed. The seed picks which programs form the grid and
// which are one-offs, and the order of each.
func planServe(seed int64) servePlan {
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(len(servePool))
	refs := func(idx []int) []string {
		out := make([]string, len(idx))
		for i, k := range idx {
			out[i] = servePool[k]
		}
		return out
	}
	grid, oneoffs := refs(order[:serveGrid]), refs(order[serveGrid:])
	run := func(refs []string, fresh bool) []request {
		out := make([]request, len(refs))
		for i, ref := range refs {
			out[i] = request{ref: ref, fresh: fresh}
		}
		return out
	}
	var plan servePlan
	plan.before[sweepTenant] = append(run(grid, true), run(grid, false)...)
	plan.after[sweepTenant] = run(grid, false)
	half := len(oneoffs) / 2
	plan.before[oneoffTenant] = run(oneoffs[:half], true)
	plan.after[oneoffTenant] = run(oneoffs[half:], true)
	return plan
}

// serveBench is a closed loop of two tenants against an in-process
// darco-serve: each client waits for its result before submitting
// again, as darco-figs and darco do. Every pass starts a server on a new store, runs the requests
// planned before the restart, restarts the server on the same store,
// and runs the rest.
type serveBench struct {
	progs []*program
	byRef map[string]*program
	plan  servePlan
}

func setupServe(seed int64, t *tracer) (bench, error) {
	progs, err := resolveAll(t, servePool, serveScale)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	w := &serveBench{progs: progs, byRef: map[string]*program{}, plan: planServe(seed)}
	for _, p := range progs {
		w.byRef[p.ref] = p
	}
	return w, nil
}

func (w *serveBench) programs() []*program { return w.progs }

// server is one running darco-serve instance.
type server struct {
	srv  *serve.Server
	http *httptest.Server
	tr   *http.Transport
}

func startServer(st *store.Store) *server {
	s := serve.NewServer(serve.Config{Workers: workers, Store: st})
	return &server{srv: s, http: httptest.NewServer(s), tr: &http.Transport{MaxConnsPerHost: serveTenants}}
}

func (s *server) client(tenant string) *serve.Client {
	cl := serve.NewClient(s.http.URL)
	cl.Tenant = tenant
	cl.HTTPClient = &http.Client{Transport: s.tr}
	return cl
}

func (s *server) stop(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	s.tr.CloseIdleConnections()
	s.http.Close()
	return err
}

// outcome is one finished request.
type outcome struct {
	req     request
	latency float64 // ms; +Inf when failed or refused
	hit     bool
	refused bool
	key     string // memo key the server filed the job under
	raw     []byte
	err     error
}

func (w *serveBench) pass(ctx context.Context, t *tracer) (*passResult, error) {
	dir, err := os.MkdirTemp(workDir, "serve-store-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	var outs []outcome
	for phase := 0; phase < 2; phase++ {
		srv := startServer(st)
		reqs := w.plan.before
		if phase == 1 {
			reqs = w.plan.after
		}
		var mu sync.Mutex
		var wg sync.WaitGroup
		for c := 0; c < serveTenants; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cl := srv.client(tenantNames[c])
				for _, rq := range reqs[c] {
					o := submit(ctx, t, cl, rq)
					mu.Lock()
					outs = append(outs, o)
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		if err := srv.stop(ctx); err != nil {
			return nil, err
		}
	}
	return w.check(t, st, outs)
}

// submit sends one request the way a darco-figs -server caller does:
// submit, follow the job's events to the end, fetch the result.
func submit(ctx context.Context, t *tracer, cl *serve.Client, rq request) outcome {
	o := outcome{req: rq}
	start := time.Now()
	sp := t.start("serve.submit", rq.ref, 0)
	resp, err := cl.Submit(ctx, serve.SubmitRequest{Workload: rq.ref, Scale: serveScale})
	sp.end()
	if err != nil {
		o.latency, o.refused, o.err = inf, serve.IsOverloaded(err), err
		return o
	}
	o.key = resp.Key
	wait := t.start("serve.queue_wait", resp.ID, 0)
	var run open
	waiting, running := true, false
	err = cl.Events(ctx, resp.ID, func(ev serve.WireEvent) {
		switch ev.Kind {
		case darco.EventStarted.String():
			if waiting {
				wait.end()
				waiting = false
			}
			run = t.start("serve.run", resp.ID, 0)
			running = true
		case darco.EventDone.String(), darco.EventFailed.String():
			if running {
				run.end()
				running = false
			}
		case darco.EventCached.String():
			o.hit = true
			if waiting {
				wait.end()
				waiting = false
			}
		}
	})
	if err == nil {
		sp = t.start("serve.result", resp.ID, 0)
		o.raw, err = cl.ResultRaw(ctx, resp.ID, true)
		sp.end()
	}
	o.latency = ms(time.Since(start))
	if err != nil {
		o.latency, o.err = inf, err
	}
	return o
}

// check verifies a pass's outcomes: every fresh request was a miss
// whose result matches the reference run, every repeat a hit whose
// record is byte-identical to the one its miss produced, and the store
// holds exactly those records.
func (w *serveBench) check(t *tracer, st *store.Store, outs []outcome) (*passResult, error) {
	res := &passResult{jobs: len(outs)}
	misses := map[string]*darco.Record{}
	missRaw := map[string][]byte{}
	keys := map[string]string{}
	read := map[string]bool{}
	var refused, hits, storeReads int
	var hitMS []float64
	for _, o := range outs {
		res.latencies = append(res.latencies, latency{ms: o.latency, hit: o.hit})
		if o.err != nil {
			res.failed++
			if o.refused {
				refused++
			}
			continue
		}
		if o.hit != !o.req.fresh {
			return nil, fmt.Errorf("serve: %s: fresh=%v but served from cache=%v: %w", o.req.ref, o.req.fresh, o.hit, errIncorrect)
		}
		if o.hit {
			hits++
			hitMS = append(hitMS, o.latency)
			continue
		}
		var rec darco.Record
		if err := json.Unmarshal(o.raw, &rec); err != nil || rec.Error != "" || rec.Result == nil {
			return nil, fmt.Errorf("serve: %s: bad result record (%v%s): %w", o.req.ref, err, rec.Error, errIncorrect)
		}
		p := w.byRef[o.req.ref]
		if err := p.check(&rec.Result.Final, rec.Result.GuestDyn()); err != nil {
			return nil, fmt.Errorf("serve: %w: %w", err, errIncorrect)
		}
		misses[o.req.ref], missRaw[o.req.ref], keys[o.req.ref] = &rec, o.raw, o.key
		// The server's engines run out of reach of the benchmark's
		// spans; their TOL activity is still counted.
		res.counts.addTOL(&rec.Result.TOL)
		res.guestInsts += rec.Result.GuestDyn()
		res.simCycles += rec.Result.Timing.Cycles
	}
	for _, o := range outs {
		if o.err == nil && o.hit && !bytes.Equal(o.raw, missRaw[o.req.ref]) {
			return nil, fmt.Errorf("serve: %s: cached record differs from the record its miss produced: %w", o.req.ref, errIncorrect)
		}
	}
	// The server looks a job up in the store when its memory cache
	// misses: once per fresh job, and once per job first repeated after
	// the restart, which the store serves. The gate above holds every
	// fresh request to a miss and every repeat to a hit, so the ratio is
	// the plan's; it describes the workload, it does not measure the
	// store.
	for _, tenant := range w.plan.after {
		for _, rq := range tenant {
			if !rq.fresh && !read[rq.ref] {
				read[rq.ref] = true
				storeReads++
			}
		}
	}

	// The store must hold each miss's record byte for byte. The traced
	// pass also times a Put of each record into a scratch store, the
	// write every miss makes on the server.
	var scratch *store.Store
	if t != nil {
		dir, err := os.MkdirTemp(workDir, "serve-scratch-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		if scratch, err = store.Open(dir); err != nil {
			return nil, err
		}
	}
	var storeBytes int
	for _, ref := range sortedKeys(misses) {
		rec, key := misses[ref], keys[ref]
		sp := t.start("store.get", ref, 0)
		raw, ok, err := st.GetRaw(key)
		sp.end()
		if err != nil || !ok || !bytes.Equal(raw, missRaw[ref]) {
			return nil, fmt.Errorf("serve: store entry of %s differs from the served record (ok=%v, err=%v): %w", ref, ok, err, errIncorrect)
		}
		storeBytes += len(raw)
		if scratch != nil {
			sp := t.start("store.put", ref, 0)
			err := scratch.Put(key, rec)
			sp.end()
			if err != nil {
				return nil, err
			}
		}
		if err := res.addSim(ref, rec.Result.Timing.Cycles, rec.Summary); err != nil {
			return nil, err
		}
	}
	if len(misses) != len(servePool) {
		return nil, fmt.Errorf("serve: %d distinct jobs simulated, want %d: %w", len(misses), len(servePool), errIncorrect)
	}
	res.layers = map[string]float64{
		"store.bytes":              float64(storeBytes),
		"store.hit_ratio":          ratio(float64(storeReads), float64(storeReads+len(misses))),
		"serve.rejected":           float64(refused),
		"serve.from_cache":         float64(hits),
		"serve.hit_latency_p50_ms": median(hitMS),
	}
	return res, nil
}
