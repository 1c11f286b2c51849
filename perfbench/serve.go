package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/live"
	"repro/internal/pathindex"
	"repro/internal/refgraph"
	"repro/internal/server"
)

// serveConfig is the fixed definition of serve-ingest.
type serveConfig struct {
	Graph     graphConfig
	SetupReps int
	// IngestRate is the writer's fixed /ingest batch rate; each batch
	// holds BatchSize mutations, half add-edge and half set-linkage. The
	// /match clients are closed-loop (see dispatch).
	IngestRate float64
	BatchSize  int
	// CompactEvery is chosen so one run spans several compactions, each
	// building its index with CompactWorkers goroutines.
	CompactEvery   int
	CompactWorkers int
	Limit          int
	PoolSize       int
	PoolAlphas     []float64
	// ZipfS and ZipfV shape the request popularity, P(k) ∝ (ZipfV+k)^-ZipfS.
	ZipfS float64
	ZipfV float64
	// LatencyLimit is the goodput limit on a /match latency.
	LatencyLimit time.Duration
	// MaxLateness bounds the writer's p99 dispatch lateness; a run beyond
	// it, one that sent under 99% of its schedule, or one that spanned
	// fewer than MinCompactions compactions is invalid.
	MaxLateness    time.Duration
	MinCompactions int
	CheckSample    int
}

var fullServe = serveConfig{
	Graph:          graphConfig{DatasetSeed: 1, Refs: 1000, Uncertain: 0.2, Groups: 10, MaxLen: 2, Beta: 0.02, Gamma: 0.1},
	SetupReps:      5,
	IngestRate:     4,
	BatchSize:      2,
	CompactEvery:   2,
	CompactWorkers: 1,
	Limit:          50,
	PoolSize:       300,
	PoolAlphas:     []float64{0.2, 0.3, 0.5},
	ZipfS:          1.1,
	ZipfV:          20,
	LatencyLimit:   250 * time.Millisecond,
	MaxLateness:    100 * time.Millisecond,
	MinCompactions: 3,
	CheckSample:    20,
}

var smokeServe = serveConfig{
	Graph:          graphConfig{DatasetSeed: 1, Refs: 200, Uncertain: 0.2, Groups: 2, MaxLen: 2, Beta: 0.05, Gamma: 0.1},
	SetupReps:      1,
	IngestRate:     8,
	BatchSize:      2,
	CompactEvery:   8,
	CompactWorkers: 1,
	Limit:          50,
	PoolSize:       24,
	PoolAlphas:     []float64{0.2, 0.3, 0.5},
	ZipfS:          1.1,
	ZipfV:          1,
	LatencyLimit:   time.Second,
	MaxLateness:    time.Second,
	CheckSample:    5,
}

// errInvalidRun marks a serve-ingest run that does not measure what the
// workload defines (see serveConfig.MaxLateness); it is not reported.
var errInvalidRun = errors.New("invalid run")

// serveSetup is the live database plus the server in front of it.
type serveSetup struct {
	db       *live.DB
	srv      *server.Server
	pgd      *refgraph.PGD
	pool     []poolEntry
	setupS   []float64
	entityMS float64
}

func setupServe(ctx context.Context, cfg serveConfig, dir string) (*serveSetup, error) {
	d, pool, err := serveInputs(cfg)
	if err != nil {
		return nil, err
	}
	s := &serveSetup{pgd: d, pool: pool}
	for rep := 0; rep < cfg.SetupReps; rep++ {
		if s.db != nil {
			if err := s.db.Close(); err != nil {
				return nil, err
			}
			s.db = nil
		}
		dbDir := filepath.Join(dir, fmt.Sprintf("live-%d", rep))
		if err := os.RemoveAll(dbDir); err != nil {
			return nil, err
		}
		runtime.GC()
		t0 := time.Now()
		db, err := live.Create(ctx, dbDir, d, live.Options{
			Index: pathindex.Options{MaxLen: cfg.Graph.MaxLen, Beta: cfg.Graph.Beta, Gamma: cfg.Graph.Gamma,
				Workers: cfg.CompactWorkers},
			CompactEvery: cfg.CompactEvery,
		})
		if err != nil {
			return nil, err
		}
		srv := server.New(db.View(), server.Options{Workers: runtime.NumCPU()})
		srv.SetLive(db)
		db.SetPublisher(srv)
		s.setupS = append(s.setupS, time.Since(t0).Seconds())
		s.db, s.srv = db, srv
	}
	// live.Create builds the entity graph inside; time the entity layer on
	// its own, outside setup_s.
	t0 := time.Now()
	if _, err := entity.Build(d, entity.BuildOptions{}); err != nil {
		return nil, err
	}
	s.entityMS = ms(time.Since(t0))
	return s, nil
}

// serveIngest is the read/write serving workload: the server runs in this
// process, the load generator in a child process (see loadgen.go).
func serveIngest(ctx context.Context, p runParams) (report, error) {
	cfg := serveConfigFor(p.smoke)
	s, err := setupServe(ctx, cfg, p.dir)
	if err != nil {
		return report{}, err
	}
	defer s.db.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return report{}, err
	}
	hs := &http.Server{Handler: s.srv.Handler()}
	serveDone := make(chan error, 1)
	go func() { serveDone <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-serveDone
	}()
	base := "http://" + ln.Addr().String()
	client, closeIdle := newClient()
	defer closeIdle()

	if err := resetPeakRSS(); err != nil {
		return report{}, err
	}
	warm := p.dur / 5
	stats0, err := getStats(client, base)
	if err != nil {
		return report{}, err
	}
	prom0, err := getMetrics(client, base)
	if err != nil {
		return report{}, err
	}
	rt0 := readRuntime()
	cr, err := runGenerator(ctx, clientArgs{Addr: ln.Addr().String(), Seed: p.seed, Secs: (warm + p.dur).Seconds(), Smoke: p.smoke})
	if err != nil {
		return report{}, err
	}
	rt1 := readRuntime()
	stats1, err := getStats(client, base)
	if err != nil {
		return report{}, err
	}
	prom1, err := getMetrics(client, base)
	if err != nil {
		return report{}, err
	}

	var (
		lats, sendLats, ingLats, engine, dirty []float64
		reads                                  []sample
		attempted, failed, computed            int
		lastDone                               int64
		wrong                                  []error
		sum                                    outcome
		tr                                     = newTracer()
	)
	for i := range cr.Outcomes {
		o := &cr.Outcomes[i]
		attempted++
		if o.Wrong != "" {
			wrong = append(wrong, errors.New(o.Wrong))
		}
		if o.Err != "" || o.Wrong != "" {
			failed++
		}
		if time.Duration(o.Sched) < warm || o.Err != "" || o.Wrong != "" {
			continue
		}
		lat := float64(o.Done-o.Sched) / 1e6
		name := "http.match"
		if o.Ingest {
			name = "http.ingest"
		}
		root := tr.add(int32(i), -1, name, o.Sent, o.Done)
		if o.Ingest {
			ingLats = append(ingLats, lat)
			dirty = append(dirty, float64(o.Dirty))
			continue
		}
		lats = append(lats, lat)
		reads = append(reads, sample{lat: time.Duration(o.Done - o.Sched), ok: true, done: time.Duration(o.Done) - warm})
		lastDone = max(lastDone, o.Done)
		engine = append(engine, o.EngineUs/1000)
		sendLats = append(sendLats, float64(o.Done-o.Sent)/1e6)
		if !o.Cached {
			computed++
			tr.add(int32(i), root, "server.engine", o.Done-int64(o.EngineUs*1000), o.Done)
			sum.EngineUs += o.EngineUs
			sum.PlanUs += o.PlanUs
			sum.CandUs += o.CandUs
			sum.CandRows += o.CandRows
			sum.CandPruned += o.CandPruned
			sum.BuildUs += o.BuildUs
			sum.Links += o.Links
			sum.ReduceUs += o.ReduceUs
			sum.ReducePruned += o.ReducePruned
			sum.JoinUs += o.JoinUs
			sum.Matched += o.Matched
		}
	}

	sentFrac, lateP99, err := checkGenerator(cr, cfg.MaxLateness)
	if err != nil {
		return report{}, err
	}
	d := func(name string) float64 { return prom1[name] - prom0[name] }
	if n := d("peg_live_compactions_total"); n < float64(cfg.MinCompactions) {
		return report{}, fmt.Errorf("%w: %v compactions, want at least %d", errInvalidRun, n, cfg.MinCompactions)
	}

	// Quiesce, then the served answers must equal core.Match on the view.
	if err := waitCompaction(s.db, 60*time.Second); err != nil {
		return report{}, err
	}
	crng := rand.New(rand.NewSource(seedFor(p.seed, 7)))
	for i := 0; i < cfg.CheckSample; i++ {
		attempted++
		e := s.pool[crng.Intn(len(s.pool))]
		if err := checkQuiesced(ctx, client, base, s.db.View(), e); err != nil {
			failed++
			wrong = append(wrong, err)
		}
	}

	m := metricSet{}
	rep := report{Correct: len(wrong) == 0, Attempted: attempted, Failed: failed, Metrics: m}
	if !p.traced {
		m.set("setup_s", "s", median(s.setupS))
		windowedEndToEnd(m, reads, time.Duration(lastDone)-warm, cfg.LatencyLimit)
		rss, err := peakRSSMB()
		if err != nil {
			return report{}, err
		}
		m.set("peak_rss_mb", "MB", rss)
		return rep, firstErr(wrong)
	}

	c := float64(computed)
	kept := sum.CandRows - sum.CandPruned
	stageUs := sum.PlanUs + sum.CandUs + sum.BuildUs + sum.ReduceUs + sum.JoinUs
	hitRatio := func(h1, h0, m1, m0 uint64) float64 { return ratio(float64(h1-h0), float64(h1-h0+m1-m0)) }

	m.set("entity.build_ms", "ms", s.entityMS)
	m.set("pathindex.build_s", "s", s.db.View().Stats().Duration.Seconds())
	m.set("pathindex.lookup_ms", "ms", 0)
	m.set("pathindex.lookups_per_query", "count", 0)
	m.set("pathindex.postings_per_lookup", "count", 0)
	m.set("plan.plan_ms", "ms", ratio(sum.PlanUs/1000, c))
	m.set("plan.sort_ms", "ms", 0)
	m.set("candidates.find_ms", "ms", ratio(sum.CandUs/1000, c))
	m.set("candidates.kept_ratio", "ratio", ratio(kept, sum.CandRows))
	m.set("candidates.cache_hit_ratio", "ratio", ratio(float64(stats1.CandCacheHits-stats0.CandCacheHits),
		float64(stats1.CandCacheHits-stats0.CandCacheHits+stats1.CandCacheMisses-stats0.CandCacheMisses+
			stats1.CandCacheBypassed-stats0.CandCacheBypassed)))
	m.set("candidates.cands_per_query", "count", ratio(kept, c))
	m.set("candidates.cache_evictions", "count", d("peg_candcache_evictions_total"))
	m.set("kpartite.build_ms", "ms", ratio(sum.BuildUs/1000, c))
	m.set("kpartite.links_per_query", "count", ratio(sum.Links, c))
	m.set("kpartite.reduce_ms", "ms", ratio(sum.ReduceUs/1000, c))
	m.set("kpartite.alive_ratio", "ratio", ratio(kept-sum.ReducePruned, kept))
	m.set("join.join_ms", "ms", ratio(sum.JoinUs/1000, c))
	m.set("join.ns_per_match", "ns", ratio(sum.JoinUs*1000, sum.Matched))
	m.set("join.matches_per_query", "count", ratio(sum.Matched, c))
	m.set("core.collect_ms", "ms", ratio((sum.EngineUs-stageUs)/1000, c))
	m.setRuntime(rt0, rt1, attempted)
	m.set("server.engine_ms", "ms", mean(engine))
	m.set("server.overhead_ms", "ms", mean(sendLats)-mean(engine))
	m.set("server.result_cache_hit_ratio", "ratio", hitRatio(stats1.CacheHits, stats0.CacheHits, stats1.CacheMisses, stats0.CacheMisses))
	m.set("server.plan_cache_hit_ratio", "ratio", hitRatio(stats1.PlanCacheHits, stats0.PlanCacheHits, stats1.PlanCacheMisses, stats0.PlanCacheMisses))
	m.set("server.cand_cache_hit_ratio", "ratio", m["candidates.cache_hit_ratio"].Value)
	m.set("server.shed_frac", "ratio", ratio(float64(stats1.Rejected-stats0.Rejected), float64(stats1.Requests-stats0.Requests)))
	m.set("live.dirty_entities_p50", "count", median(dirty))
	m.set("live.compactions", "count", d("peg_live_compactions_total"))
	m.set("live.compaction_s", "s", d("peg_live_compaction_seconds_total"))
	m.pct("live.ingest_p50_ms", ingLats, 50)
	m.pct("live.ingest_p90_ms", ingLats, 90)
	m.set("loadgen.lateness_p99_ms", "ms", lateP99)
	m.set("loadgen.sent_frac", "ratio", sentFrac)
	m.pctIfSupported("loadgen.latency_p99_ms", lats, 99)
	m.set("loadgen.error_rate", "ratio", ratio(float64(failed), float64(attempted)))
	m.set("trace.coverage", "ratio", ratio(stageUs, sum.EngineUs))
	m.set("trace.overhead_frac", "ratio", 0)
	if p.spans != "" {
		if err := writeSpans(p.spans, tr.spans); err != nil {
			return report{}, err
		}
	}
	return rep, firstErr(wrong)
}

// checkGenerator returns the share of its /ingest schedule the writer sent
// and its p99 dispatch lateness over every sent batch. (The closed-loop
// /match clients have no schedule to fall behind.) A writer that sent under
// 99% of its schedule or was later than maxLate at p99 fell behind, and the
// run is invalid.
func checkGenerator(cr clientReport, maxLate time.Duration) (sentFrac, lateP99 float64, err error) {
	var lateness []float64
	for _, o := range cr.Outcomes {
		if o.Ingest {
			lateness = append(lateness, float64(o.Lateness)/1e6)
		}
	}
	sentFrac = ratio(float64(cr.Sent), float64(cr.Scheduled))
	lateP99 = percentile(lateness, 99)
	if sentFrac < 0.99 || time.Duration(lateP99*1e6) > maxLate {
		err = fmt.Errorf("%w: writer sent %.4f of its schedule, p99 lateness %.3f ms (limit %v)",
			errInvalidRun, sentFrac, lateP99, maxLate)
	}
	return sentFrac, lateP99, err
}

// runGenerator runs the load generator as a child process of this binary
// and waits for its report.
func runGenerator(ctx context.Context, args clientArgs) (clientReport, error) {
	var cr clientReport
	exe, err := os.Executable()
	if err != nil {
		return cr, err
	}
	raw, err := json.Marshal(args)
	if err != nil {
		return cr, err
	}
	ctx, cancel := context.WithTimeout(ctx, time.Duration(args.Secs*float64(time.Second))+2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), clientEnv+"="+string(raw))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return cr, fmt.Errorf("load generator: %w", err)
	}
	if err := json.Unmarshal(out.Bytes(), &cr); err != nil {
		return cr, fmt.Errorf("load generator output: %w", err)
	}
	return cr, nil
}

func mean(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return ratio(t, float64(len(xs)))
}

func firstErr(errs []error) error {
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("%d wrong answers, first: %w", len(errs), errs[0])
}

// checkQuiesced sends one pool query with no limit and compares the served
// answer with core.Match on the database's current view.
func checkQuiesced(ctx context.Context, client *http.Client, base string, view *live.View, e poolEntry) error {
	req, _ := json.Marshal(server.MatchRequest{Query: e.text, Alpha: e.alpha}) // cannot fail, as in dispatch
	resp, err := client.Post(base+"/match", "application/json", bytes.NewReader(req))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("quiesced /match: status %d", resp.StatusCode)
	}
	var r server.MatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		return fmt.Errorf("quiesced /match: %w", err)
	}
	want, err := core.Match(ctx, view, e.q, core.Options{Alpha: e.alpha, Workers: 1, Parallelism: 1})
	if err != nil {
		return err
	}
	if err := checkSameMatches(r.Matches, want.Matches); err != nil {
		return fmt.Errorf("quiesced %q at alpha %v: %w", e.text, e.alpha, err)
	}
	return nil
}

// waitCompaction waits for a running background compaction to publish.
func waitCompaction(db *live.DB, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for db.Status().Compacting {
		if time.Now().After(deadline) {
			return fmt.Errorf("compaction still running after %v", limit)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

func getStats(client *http.Client, base string) (server.StatsResponse, error) {
	var st server.StatsResponse
	resp, err := client.Get(base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("/stats: %w", err)
	}
	return st, nil
}

// getMetrics scrapes the unlabeled samples of /metrics.
func getMetrics(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		out[f[0]] = v
	}
	return out, sc.Err()
}
