package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/join"
	"repro/internal/query"
)

// runParams is what the command line fixes for one run.
type runParams struct {
	seed   int64
	dur    time.Duration
	traced bool
	dir    string // working directory for index files
	spans  string // where a traced run writes its spans ("" = nowhere)
	smoke  bool
}

// libRequest is one library call of a closed loop: the query, its options
// and the check its answer must pass.
type libRequest struct {
	q     *query.Query
	opt   core.Options
	check func([]join.Match) error
}

// libDriver describes one library workload: its clients, its goodput
// latency limit, and the request each client sends next.
type libDriver struct {
	name    string
	clients int
	limit   time.Duration
	next    func(client int) libRequest
	// evictions reads the candidate-cache evictions so far (nil: no cache).
	evictions func() uint64
	// pairCache, when set, replaces the candidate cache of the core.Match
	// call a traced step pairs with the composition. Sharing one cache,
	// whichever call ran second would always hit, and the composition's
	// cache counters would not describe the workload.
	pairCache *candidates.Cache
}

// runLibrary runs a workload's closed loop for p.dur after a warm-up of a
// fifth of that. Untraced, each step is one core.Match and the run reports
// the end-to-end metrics. Traced, each step runs core.Match and the traced
// composition back to back, alternating which goes first, requires their
// answers to be bitwise-equal, and reports the per-layer metrics. The two
// calls never share a candidate cache (see libDriver.pairCache).
func runLibrary(ctx context.Context, p runParams, s *libSetup, d libDriver) (report, error) {
	m := metricSet{}
	res := &loopResult{}
	tr := newTracer()
	var (
		accMu      sync.Mutex
		acc        layerCounts
		reqID      atomic.Int32
		plainLats  []float64
		plainWall  atomic.Int64
		tracedWall atomic.Int64
	)
	plain := func(r libRequest) (time.Duration, []join.Match, error) {
		t0 := time.Now()
		out, err := core.Match(ctx, s.ix, r.q, r.opt)
		lat := time.Since(t0)
		if err != nil {
			return lat, nil, err
		}
		return lat, out.Matches, r.check(out.Matches)
	}

	if err := resetPeakRSS(); err != nil {
		return report{}, err
	}
	warm := p.dur / 5
	closedLoop(d.clients, warm, func(c, _ int) {
		if _, _, err := plain(d.next(c)); err != nil {
			res.record(sample{}, err)
		}
	})

	rt0 := readRuntime()
	if !p.traced {
		start := time.Now()
		res.elapsed = closedLoop(d.clients, p.dur, func(c, _ int) {
			lat, _, err := plain(d.next(c))
			res.record(sample{lat: lat, ok: err == nil, done: time.Since(start)}, err)
		})
		windowedEndToEnd(m, res.samples, res.elapsed, d.limit)
		s.setupMetrics(m)
		rss, err := peakRSSMB()
		if err != nil {
			return report{}, err
		}
		m.set("peak_rss_mb", "MB", rss)
		return finish(m, res), nil
	}

	var latMu sync.Mutex
	res.elapsed = closedLoop(d.clients, p.dur, func(c, i int) {
		r := d.next(c)
		var (
			lat      time.Duration
			want     []join.Match
			plainErr error
			got      []join.Match
			trErr    error
			trWall   time.Duration
			local    layerCounts
		)
		runTraced := func() {
			t0 := time.Now()
			got, trErr = composed(ctx, s.ix, tr, reqID.Add(1), r.q, r.opt, &local)
			trWall = time.Since(t0)
		}
		pr := r
		if d.pairCache != nil {
			pr.opt.CandCache = d.pairCache
		}
		if i%2 == 0 {
			lat, want, plainErr = plain(pr)
			runTraced()
		} else {
			runTraced()
			lat, want, plainErr = plain(pr)
		}
		res.record(sample{lat: lat, ok: plainErr == nil}, plainErr)
		if trErr == nil && plainErr == nil && digest(got) != digest(want) {
			trErr = fmt.Errorf("%s: traced composition (%d matches) differs from core.Match (%d)", d.name, len(got), len(want))
		}
		res.record(sample{lat: trWall, ok: trErr == nil}, trErr)
		if plainErr == nil && trErr == nil {
			plainWall.Add(int64(lat))
			tracedWall.Add(int64(trWall))
		}
		accMu.Lock()
		acc.add(local)
		accMu.Unlock()
		if plainErr == nil {
			latMu.Lock()
			plainLats = append(plainLats, ms(lat))
			latMu.Unlock()
		}
	})
	rt1 := readRuntime()

	spans := tr.spans
	libLayerMetrics(m, spans, acc)
	s.layerSetupMetrics(m)
	zeroServeLayers(m)
	m.setRuntime(rt0, rt1, len(res.samples))
	m.set("trace.overhead_frac", "ratio", ratio(float64(tracedWall.Load()), float64(plainWall.Load()))-1)
	m.pctIfSupported("loadgen.latency_p99_ms", plainLats, 99)
	var ev uint64
	if d.evictions != nil {
		ev = d.evictions()
	}
	m.set("candidates.cache_evictions", "count", float64(ev))
	rep := finish(m, res)
	m.set("loadgen.error_rate", "ratio", ratio(float64(rep.Failed), float64(rep.Attempted)))
	if p.spans != "" {
		if err := writeSpans(p.spans, spans); err != nil {
			return report{}, err
		}
	}
	return rep, nil
}

// finish builds the report from a run's failures; any failure is a wrong
// or missing answer.
func finish(m metricSet, res *loopResult) report {
	return report{
		Correct:   len(res.failures) == 0,
		Attempted: len(res.samples),
		Failed:    len(res.failures),
		Metrics:   m,
	}
}

// collectRich is the bulk-collect workload: one closed-loop client cycles
// through a seeded permutation of the selected queries with library
// defaults (no candidate cache), every answer checked against its
// reference digest.
func collectRich(ctx context.Context, p runParams) (report, error) {
	cfg := configFor(p)
	s, err := setupLibrary(ctx, cfg, p.dir)
	if err != nil {
		return report{}, err
	}
	defer s.Close()
	qs, err := selectCollect(ctx, s.ix, cfg)
	if err != nil {
		return report{}, err
	}
	perm := rand.New(rand.NewSource(seedFor(p.seed, 3))).Perm(len(qs))
	pos := 0
	return runLibrary(ctx, p, s, libDriver{
		name:    "collect-rich",
		clients: 1,
		limit:   cfg.CollectLimit,
		next: func(int) libRequest {
			cq := qs[perm[pos%len(perm)]]
			pos++
			return libRequest{q: cq.q, opt: core.Options{Alpha: cfg.CollectAlpha}, check: func(ms []join.Match) error {
				return checkCollect(ms, cq.ref)
			}}
		},
	})
}

// firstMatchZipf is the first-match workload: nproc closed-loop clients
// draw Zipf-distributed requests from the seeded pool and share one
// candidate cache at its default budget.
func firstMatchZipf(ctx context.Context, p runParams) (report, error) {
	cfg := configFor(p)
	s, err := setupLibrary(ctx, cfg, p.dir)
	if err != nil {
		return report{}, err
	}
	defer s.Close()
	pool, err := makePool(s.g.Alphabet(), cfg)
	if err != nil {
		return report{}, err
	}
	if err := referenceHas(ctx, s.ix, pool); err != nil {
		return report{}, err
	}
	cache := candidates.NewCache(0)
	var pairCache *candidates.Cache
	if p.traced {
		pairCache = candidates.NewCache(0)
	}
	clients := runtime.NumCPU()
	zipfs := make([]*rand.Zipf, clients)
	for c := range zipfs {
		zipfs[c] = rand.NewZipf(rand.New(rand.NewSource(seedFor(p.seed, int64(200+c)))), cfg.ZipfS, cfg.ZipfV, uint64(len(pool)-1))
	}
	return runLibrary(ctx, p, s, libDriver{
		name:    "first-match-zipf",
		clients: clients,
		limit:   cfg.FirstLimit,
		next: func(c int) libRequest {
			e := &pool[zipfs[c].Uint64()]
			return libRequest{q: e.q, opt: firstMatchOptions(e.alpha, cache), check: func(ms []join.Match) error {
				return checkFirstMatch(s.g, e.q, e.alpha, ms, e.has)
			}}
		},
		evictions: func() uint64 { return cache.Stats().Evictions },
		pairCache: pairCache,
	})
}

func configFor(p runParams) libConfig {
	if p.smoke {
		return smokeLib
	}
	return fullLib
}
