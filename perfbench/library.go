package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/join"
	"repro/internal/kpartite"
	"repro/internal/pathindex"
	"repro/internal/plan"
	"repro/internal/prob"
	"repro/internal/query"
)

// graphConfig sizes the synthetic PGD and its path index. The graph and
// the query sets drawn over it are a fixed dataset, generated from
// DatasetSeed; the run's --seed drives everything that varies between runs
// of one workload (request order, Zipf draws).
// Keeping the dataset fixed is what lets ten seeds agree within the
// benchmark's bounds: with a fresh graph per seed, serve-ingest latencies
// differed by more than 2x between seeds.
type graphConfig struct {
	DatasetSeed int64
	Refs        int
	Uncertain   float64
	Groups      int
	MaxLen      int
	Beta        float64
	Gamma       float64
}

// libConfig is the fixed definition of the two library workloads. The
// numbers live here, with the workload, so parent and child commits measure
// the same thing.
type libConfig struct {
	Graph     graphConfig
	SetupReps int

	// collect-rich: about ten q(5,4) queries at CollectAlpha whose
	// reference match counts fall in [BandLo, BandHi), spread evenly over
	// Bins log-spaced count bins (PerBin each) so every seed gets the same
	// mix of sizes.
	CollectAlpha float64
	BandLo       int
	BandHi       int
	Bins         int
	PerBin       int
	MaxDraws     int
	CollectLimit time.Duration

	// first-match-zipf: PoolSize (query, α) pairs drawn Zipf, P(k) ∝
	// (ZipfV+k)^-ZipfS. The pool is large enough, and the draws flat
	// enough, that the pruned candidates a run touches (about 760 per entry
	// on this dataset) exceed the candidate cache's default budget of 2^20,
	// so the shared cache evicts; 300 entries filled only a fifth of it.
	PoolSize   int
	PoolAlphas []float64
	ZipfS      float64
	ZipfV      float64
	FirstLimit time.Duration
}

var fullLib = libConfig{
	Graph:        graphConfig{DatasetSeed: 1, Refs: 1000, Uncertain: 0.2, Groups: 10, MaxLen: 3, Beta: 0.1, Gamma: 0.1},
	SetupReps:    3,
	CollectAlpha: 0.1,
	BandLo:       10000,
	BandHi:       40000,
	Bins:         4,
	PerBin:       3,
	MaxDraws:     400,
	CollectLimit: time.Second,
	PoolSize:     2000,
	PoolAlphas:   []float64{0.2, 0.3, 0.5},
	ZipfS:        1.1,
	ZipfV:        20,
	FirstLimit:   100 * time.Millisecond,
}

// smokeLib is the same workload shape at toy size, for tests.
var smokeLib = libConfig{
	Graph:        graphConfig{DatasetSeed: 1, Refs: 200, Uncertain: 0.2, Groups: 2, MaxLen: 2, Beta: 0.1, Gamma: 0.1},
	SetupReps:    1,
	CollectAlpha: 0.1,
	BandLo:       20,
	BandHi:       5000,
	Bins:         2,
	PerBin:       2,
	MaxDraws:     200,
	CollectLimit: time.Second,
	PoolSize:     24,
	PoolAlphas:   []float64{0.2, 0.3, 0.5},
	ZipfS:        1.1,
	ZipfV:        1,
	FirstLimit:   time.Second,
}

// libSetup is the program state both library workloads query.
type libSetup struct {
	g        *entity.Graph
	ix       *pathindex.Index
	setupS   []float64
	entityMS []float64
	indexS   []float64
}

func (s *libSetup) Close() error { return s.ix.Close() }

// setupLibrary runs the timed set-up calls — gen.Synthetic, entity.Build,
// pathindex.Build — cfg.SetupReps times and keeps the last index.
func setupLibrary(ctx context.Context, cfg libConfig, dir string) (*libSetup, error) {
	s := &libSetup{}
	for rep := 0; rep < cfg.SetupReps; rep++ {
		if s.ix != nil {
			if err := s.ix.Close(); err != nil {
				return nil, err
			}
			s.ix = nil
		}
		ixDir := filepath.Join(dir, fmt.Sprintf("index-%d", rep))
		if err := os.RemoveAll(ixDir); err != nil {
			return nil, err
		}
		runtime.GC()
		t0 := time.Now()
		d, err := gen.Synthetic(gen.SynthOptions{
			Refs: cfg.Graph.Refs, UncertainFrac: cfg.Graph.Uncertain, Groups: cfg.Graph.Groups, Seed: cfg.Graph.DatasetSeed,
		})
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		g, err := entity.Build(d, entity.BuildOptions{})
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		ix, err := pathindex.Build(ctx, g, pathindex.Options{
			MaxLen: cfg.Graph.MaxLen, Beta: cfg.Graph.Beta, Gamma: cfg.Graph.Gamma, Dir: ixDir,
		})
		if err != nil {
			return nil, err
		}
		t3 := time.Now()
		s.g, s.ix = g, ix
		s.setupS = append(s.setupS, t3.Sub(t0).Seconds())
		s.entityMS = append(s.entityMS, ms(t2.Sub(t1)))
		s.indexS = append(s.indexS, t3.Sub(t2).Seconds())
	}
	return s, nil
}

func (s *libSetup) setupMetrics(m metricSet) {
	m.set("setup_s", "s", median(s.setupS))
}

func (s *libSetup) layerSetupMetrics(m metricSet) {
	m.set("entity.build_ms", "ms", median(s.entityMS))
	m.set("pathindex.build_s", "s", median(s.indexS))
}

// seedFor derives an independent stream seed for one purpose of a run.
func seedFor(seed int64, purpose int64) int64 { return seed*1_000_003 + purpose }

// collectQuery is one collect-rich query with the digest of its reference
// answer.
type collectQuery struct {
	q   *query.Query
	ref [32]byte
}

// referenceOptions is the plan-independent reference configuration: no
// search-space reduction, sequential join.
func referenceOptions(alpha float64) core.Options {
	return core.Options{Alpha: alpha, Strategy: core.StrategyNoSSReduction, Workers: 1, Parallelism: 1}
}

// selectCollect draws random q(5,4) queries and keeps those whose reference
// match count lands in a not-yet-full log-spaced count bin. Selection reads
// only match counts, never timings.
func selectCollect(ctx context.Context, ix pathindex.Reader, cfg libConfig) ([]collectQuery, error) {
	rng := rand.New(rand.NewSource(seedFor(cfg.Graph.DatasetSeed, 1)))
	nLabels := ix.Graph().NumLabels()
	bins := make([][]collectQuery, cfg.Bins)
	var spare []collectQuery
	want := cfg.Bins * cfg.PerBin
	have := 0
	width := math.Log(float64(cfg.BandHi)/float64(cfg.BandLo)) / float64(cfg.Bins)
	for draw := 0; draw < cfg.MaxDraws && have < want; draw++ {
		q, err := gen.RandomQuery(rng, nLabels, 5, 4)
		if err != nil {
			return nil, err
		}
		n, err := countUpTo(ctx, ix, q, cfg.CollectAlpha, cfg.BandHi)
		if err != nil {
			return nil, err
		}
		if n < cfg.BandLo || n >= cfg.BandHi {
			continue
		}
		b := int(math.Log(float64(n)/float64(cfg.BandLo)) / width)
		b = min(b, cfg.Bins-1)
		cq := collectQuery{q: q}
		if len(bins[b]) < cfg.PerBin {
			bins[b] = append(bins[b], cq)
			have++
		} else {
			spare = append(spare, cq)
		}
	}
	var out []collectQuery
	for _, b := range bins {
		out = append(out, b...)
	}
	for len(out) < want && len(spare) > 0 {
		out, spare = append(out, spare[0]), spare[1:]
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("collect-rich: no query in [%d, %d) matches after %d draws", cfg.BandLo, cfg.BandHi, cfg.MaxDraws)
	}
	for i := range out {
		res, err := core.Match(ctx, ix, out[i].q, referenceOptions(cfg.CollectAlpha))
		if err != nil {
			return nil, err
		}
		out[i].ref = digest(res.Matches)
	}
	return out, nil
}

// countUpTo counts a query's matches under the reference configuration,
// stopping once the count reaches limit.
func countUpTo(ctx context.Context, ix pathindex.Reader, q *query.Query, alpha float64, limit int) (int, error) {
	n := 0
	_, err := core.MatchStream(ctx, ix, q, referenceOptions(alpha), func(join.Match) bool {
		n++
		return n < limit
	})
	return n, err
}

// poolEntry is one first-match-zipf request: a query, its α, and whether
// the reference finds any match.
type poolEntry struct {
	q     *query.Query
	text  string
	alpha float64
	has   bool
}

// makePool builds the seeded request pool: paths, trees, 4–6-cycles and the
// Figure 8 shapes of at most six nodes, with random labels and α drawn from
// cfg.PoolAlphas. Queries without a match stay in the pool.
func makePool(a *prob.Alphabet, cfg libConfig) ([]poolEntry, error) {
	rng := rand.New(rand.NewSource(seedFor(cfg.Graph.DatasetSeed, 2)))
	nLabels := a.Len()
	var patterns []gen.Pattern
	for _, p := range gen.Patterns() {
		if n, _, err := gen.PatternSize(p); err == nil && n <= 6 {
			patterns = append(patterns, p)
		}
	}
	pool := make([]poolEntry, 0, cfg.PoolSize)
	for i := 0; i < cfg.PoolSize; i++ {
		var (
			q   *query.Query
			err error
		)
		switch i % 4 {
		case 0:
			q, err = pathQuery(rng, nLabels, 3+rng.Intn(4))
		case 1:
			n := 3 + rng.Intn(4)
			q, err = gen.RandomQuery(rng, nLabels, n, n-1)
		case 2:
			q, err = gen.CycleQuery(rng, nLabels, 4+rng.Intn(3))
		default:
			q, err = gen.PatternQueryRandomLabels(patterns[rng.Intn(len(patterns))], rng, nLabels, false)
		}
		if err != nil {
			return nil, err
		}
		pool = append(pool, poolEntry{q: q, text: q.Format(a), alpha: cfg.PoolAlphas[rng.Intn(len(cfg.PoolAlphas))]})
	}
	return pool, nil
}

func pathQuery(rng *rand.Rand, nLabels, n int) (*query.Query, error) {
	q := query.New()
	for i := 0; i < n; i++ {
		q.AddNode(prob.LabelID(rng.Intn(nLabels)))
	}
	for i := 1; i < n; i++ {
		if err := q.AddEdge(query.NodeID(i-1), query.NodeID(i)); err != nil {
			return nil, err
		}
	}
	return q, nil
}

// referenceHas fills in whether each pool entry has a match, under the
// reference configuration.
func referenceHas(ctx context.Context, ix pathindex.Reader, pool []poolEntry) error {
	for i := range pool {
		opt := referenceOptions(pool[i].alpha)
		opt.Limit = 1
		res, err := core.Match(ctx, ix, pool[i].q, opt)
		if err != nil {
			return err
		}
		pool[i].has = len(res.Matches) > 0
	}
	return nil
}

// firstMatchOptions is the server's per-request setting: sequential
// pre-join stages and join, first match only.
func firstMatchOptions(alpha float64, cache *candidates.Cache) core.Options {
	return core.Options{Alpha: alpha, Limit: 1, Workers: 1, Parallelism: 1, CandCache: cache}
}

// sample is one finished request: its latency, whether its answer was
// right, and when it finished, from the start of the measured phase.
type sample struct {
	lat  time.Duration
	ok   bool
	done time.Duration
}

// loopResult collects a closed loop's samples and failures.
type loopResult struct {
	mu       sync.Mutex
	samples  []sample
	failures []error
	elapsed  time.Duration
}

func (r *loopResult) record(s sample, err error) {
	r.mu.Lock()
	r.samples = append(r.samples, s)
	if err != nil {
		r.failures = append(r.failures, err)
	}
	r.mu.Unlock()
}

// closedLoop runs clients goroutines, each calling step back-to-back until
// the duration has passed, and waits for all of them.
func closedLoop(clients int, dur time.Duration, step func(client, i int)) time.Duration {
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				step(c, i)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// layerCounts accumulates the per-layer counters of traced compositions.
type layerCounts struct {
	queries     int64
	lookups     int64
	postings    int64
	initial     int64
	kept        int64
	cacheHits   int64
	cacheMisses int64
	links       int64
	aliveBefore int64
	aliveAfter  int64
	matches     int64
}

func (a *layerCounts) add(b layerCounts) {
	a.queries += b.queries
	a.lookups += b.lookups
	a.postings += b.postings
	a.initial += b.initial
	a.kept += b.kept
	a.cacheHits += b.cacheHits
	a.cacheMisses += b.cacheMisses
	a.links += b.links
	a.aliveBefore += b.aliveBefore
	a.aliveAfter += b.aliveAfter
	a.matches += b.matches
}

// timedIndex wraps the immutable index so every posting lookup becomes a
// span. It deliberately has no Mutations method: candidates.Find must see
// an immutable reader, exactly as it does for the bare index.
type timedIndex struct {
	*pathindex.Index
	tr       *tracer
	req      int32
	parent   int32
	lookups  atomic.Int64
	postings atomic.Int64
}

func (t *timedIndex) Lookup(X []prob.LabelID, alpha float64) ([]pathindex.PathMatch, error) {
	start := t.tr.now()
	ms, err := t.Index.Lookup(X, alpha)
	t.tr.add(t.req, t.parent, "pathindex.lookup", start, t.tr.now())
	t.lookups.Add(1)
	t.postings.Add(int64(len(ms)))
	return ms, err
}

// composed re-runs the stage sequence of plan.Executor.Run from public
// calls, one span per call under a root span, and returns the answer
// core.Match would return. Supported options are those the library
// workloads use: OrderEmit, and Limit only with a sequential join.
func composed(ctx context.Context, ix *pathindex.Index, tr *tracer, req int32, q *query.Query, opt core.Options, acc *layerCounts) ([]join.Match, error) {
	if opt.Order != core.OrderEmit || opt.Strategy != core.StrategyOptimized {
		return nil, fmt.Errorf("composed: only the optimized strategy in emit order is supported")
	}
	g := ix.Graph()
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if err := q.Validate(g.Alphabet()); err != nil {
		return nil, err
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	par := opt.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if opt.Limit > 0 && par > 1 {
		return nil, fmt.Errorf("composed: Limit needs a sequential join")
	}
	tix := &timedIndex{Index: ix, tr: tr, req: req}
	root := tr.reserve(req, -1, "core.match")
	defer tr.finish(root)
	step := func(name string, fn func() error) error {
		id := tr.reserve(req, root, name)
		tix.parent = id
		err := fn()
		tr.finish(id)
		return err
	}

	var pl *plan.Plan
	err := step("plan.plan", func() (err error) {
		pl, err = plan.NewPlanner(tix, nil).Plan(ctx, q, plan.Options{
			Alpha: opt.Alpha, MaxLen: opt.MaxLen, Strategy: opt.Strategy.Name(), Space: plan.FullSpace(), Seed: opt.Seed,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	var (
		sets []candidates.Set
		cst  candidates.Stats
	)
	if err := step("candidates.find", func() (err error) {
		sets, cst, err = candidates.Find(ctx, tix, q, pl.Dec, pl.Alpha, workers, opt.CandCache)
		return err
	}); err != nil {
		return nil, err
	}
	var kg *kpartite.Graph
	if err := step("kpartite.build", func() (err error) {
		kg, err = kpartite.Build(ctx, g, q, pl.Dec, sets, pl.Alpha, workers)
		return err
	}); err != nil {
		return nil, err
	}
	alive := func() int64 {
		n := 0
		for p := 0; p < kg.NumPartitions(); p++ {
			n += kg.AliveCount(p)
		}
		return int64(n)
	}
	before := alive()
	if pl.Reduce {
		if err := step("kpartite.reduce", func() error {
			_, err := kg.Reduce(ctx, workers)
			return err
		}); err != nil {
			return nil, err
		}
	}
	after := alive()
	var order []int
	_ = step("join.order", func() error {
		cards := make([]float64, kg.NumPartitions())
		for p := range cards {
			cards[p] = float64(kg.AliveCount(p))
		}
		order = join.OrderWithCards(pl.Dec, pl.OrderMode, cards)
		return nil
	})
	parts := make([][]join.Match, par)
	if err := step("join.join", func() error {
		if par == 1 {
			return join.FindMatchesFunc(ctx, g, q, pl.Dec, kg, order, pl.Alpha, func(m join.Match) bool {
				parts[0] = append(parts[0], m)
				return opt.Limit == 0 || len(parts[0]) < opt.Limit
			})
		}
		return join.FindMatchesParallel(ctx, g, q, pl.Dec, kg, order, pl.Alpha, par, func(w int, m join.Match) bool {
			parts[w] = append(parts[w], m)
			return true
		})
	}); err != nil {
		return nil, err
	}
	var ms []join.Match
	_ = step("core.collect", func() error {
		n := 0
		for _, p := range parts {
			n += len(p)
		}
		if n > 0 {
			ms = make([]join.Match, 0, n)
			for _, p := range parts {
				ms = append(ms, p...)
			}
		}
		return nil
	})
	if len(ms) > 0 {
		_ = step("plan.sort", func() error {
			plan.SortMatches(ms)
			return nil
		})
	}

	acc.queries++
	acc.lookups += tix.lookups.Load()
	acc.postings += tix.postings.Load()
	for i := range cst.Initial {
		acc.initial += int64(cst.Initial[i])
		acc.kept += int64(cst.Kept[i])
	}
	acc.cacheHits += int64(cst.CacheHits)
	acc.cacheMisses += int64(cst.CacheMisses)
	acc.links += int64(kg.NumLinks())
	acc.aliveBefore += before
	acc.aliveAfter += after
	acc.matches += int64(len(ms))
	return ms, nil
}

// libLayerMetrics turns a traced run's spans and counters into the
// per-layer metrics. Times are self times per query.
func libLayerMetrics(m metricSet, spans []span, c layerCounts) {
	ls := summarize(spans)
	perQ := func(name string) float64 { return ratio(float64(ls.self[name])/1e6, float64(c.queries)) }
	m.set("plan.plan_ms", "ms", perQ("plan.plan"))
	m.set("plan.sort_ms", "ms", perQ("plan.sort"))
	m.set("pathindex.lookup_ms", "ms", perQ("pathindex.lookup"))
	m.set("pathindex.lookups_per_query", "count", ratio(float64(c.lookups), float64(c.queries)))
	m.set("pathindex.postings_per_lookup", "count", ratio(float64(c.postings), float64(c.lookups)))
	m.set("candidates.find_ms", "ms", perQ("candidates.find"))
	m.set("candidates.kept_ratio", "ratio", ratio(float64(c.kept), float64(c.initial)))
	m.set("candidates.cache_hit_ratio", "ratio", ratio(float64(c.cacheHits), float64(c.cacheHits+c.cacheMisses)))
	m.set("candidates.cands_per_query", "count", ratio(float64(c.kept), float64(c.queries)))
	m.set("kpartite.build_ms", "ms", perQ("kpartite.build"))
	m.set("kpartite.links_per_query", "count", ratio(float64(c.links), float64(c.queries)))
	m.set("kpartite.reduce_ms", "ms", perQ("kpartite.reduce"))
	m.set("kpartite.alive_ratio", "ratio", ratio(float64(c.aliveAfter), float64(c.aliveBefore)))
	m.set("join.join_ms", "ms", perQ("join.join")+perQ("join.order"))
	m.set("join.ns_per_match", "ns", ratio(float64(ls.self["join.join"]), float64(c.matches)))
	m.set("join.matches_per_query", "count", ratio(float64(c.matches), float64(c.queries)))
	m.set("core.collect_ms", "ms", perQ("core.collect")+perQ("core.match"))
	m.set("trace.coverage", "ratio", ratio(float64(ls.rootCover), float64(ls.rootWall)))
}

// zeroServeLayers reports the serving-tier layers a library workload does
// not run as 0.
func zeroServeLayers(m metricSet) {
	for _, n := range []string{
		"server.engine_ms", "server.overhead_ms", "server.result_cache_hit_ratio", "server.plan_cache_hit_ratio",
		"server.cand_cache_hit_ratio", "server.shed_frac", "live.dirty_entities_p50", "live.compactions",
		"live.compaction_s", "live.ingest_p50_ms", "live.ingest_p90_ms", "loadgen.lateness_p99_ms",
	} {
		m.set(n, layerUnits[n], 0)
	}
	m.set("loadgen.sent_frac", "ratio", 1)
}
