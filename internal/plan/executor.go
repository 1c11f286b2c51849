package plan

import (
	"cmp"
	"container/heap"
	"context"
	"runtime"
	"slices"
	"time"

	"repro/internal/candidates"
	"repro/internal/entity"
	"repro/internal/join"
	"repro/internal/kpartite"
	"repro/internal/pathindex"
)

// Exec configures one plan execution — the run-time knobs that do not
// affect which plan is chosen.
type Exec struct {
	// Workers bounds stage parallelism for candidate pruning and the
	// reduction (0 = GOMAXPROCS).
	Workers int
	// Limit caps the number of emitted matches (0 = unlimited).
	Limit int
	// Order selects the emission order (OrderEmit or OrderByProb).
	Order ResultOrder
	// Parallelism is the number of join-enumeration workers
	// (0 = GOMAXPROCS, 1 = sequential).
	Parallelism int
	// CandCache, when non-nil, serves pruned per-path candidate sets for
	// repeated query shapes. It must only be shared between executions over
	// the same immutable index snapshot (the serving tier owns one per
	// generation); live views with pending mutations bypass it.
	CandCache *candidates.Cache
}

// Executor runs compiled plans against one index. It is stateless apart
// from the optional calibration it feeds observations into, so one Executor
// value may run any number of plans concurrently.
type Executor struct {
	ix    pathindex.Reader
	calib *Calibration
}

// NewExecutor returns an executor over the index. calib may be nil (no
// feedback recorded).
func NewExecutor(ix pathindex.Reader, calib *Calibration) *Executor {
	return &Executor{ix: ix, calib: calib}
}

// run carries one execution's state from the pre-join stages to the join:
// the stats accumulated so far, the reduced k-partite graph, the adaptive
// join order and the resolved join width.
type run struct {
	start time.Time
	st    Stats
	g     *entity.Graph
	kg    *kpartite.Graph
	order []int
	par   int
	t0    time.Time // start of the join stage
}

// Run executes the plan in stages — candidate retrieval → k-partite build →
// joint reduction → join — streaming matches into yield. Per-stage timings,
// estimated vs. observed cardinalities, and prune counts land in Stats;
// observed/estimated candidate ratios are fed back into the calibration.
// Before the join the executor re-orders the partitions using the observed
// alive counts instead of the plan's histogram estimates: the match set is
// invariant under join order, so this changes cost only (PlannedOrder and
// ExecOrder record both sides). Returning false from yield stops the
// enumeration (not an error); the semantics of Limit, Order, Parallelism,
// and cancellation are exactly core.MatchStream's.
func (e *Executor) Run(ctx context.Context, pl *Plan, opt Exec, yield func(join.Match) bool) (Stats, error) {
	r, err := e.prejoin(ctx, pl, opt)
	if err != nil {
		return r.st, err
	}
	switch {
	case opt.Order == OrderByProb:
		var tops []*topK
		if tops, err = e.joinTopK(ctx, pl, opt, r); err == nil {
			ms, truncated := mergeTopK(tops, opt.Limit)
			r.st.Truncated = truncated
			for _, m := range ms {
				r.st.Matched++
				if !yield(m) {
					r.st.Truncated = true
					break
				}
			}
		}
	case r.par > 1:
		err = e.streamEmitParallel(ctx, pl, opt, r, yield)
	default:
		err = e.streamEmit(ctx, pl, opt, r, yield)
	}
	if err != nil {
		return r.st, err
	}
	r.endJoin(r.st.Matched)
	r.st.Total = time.Since(r.start)
	return r.st, nil
}

// Collect executes the plan like Run but returns the whole result set
// instead of streaming it, in the deterministic collect order: ascending
// by CompareMatches for OrderEmit, best-first by probability for
// OrderByProb. The parallel OrderEmit join yields into one collector per
// worker instead of a shared channel; each worker's run is then sorted
// concurrently and a single k-way merge writes the result, so the output is
// identical to a sequential run sorted by CompareMatches. With Limit > 0
// the workers claim result slots from a shared counter, so exactly Limit
// matches (any Limit of the full set, sorted) are returned and Truncated is
// set. The "collect" stage row times the concatenation, sort and merge.
func (e *Executor) Collect(ctx context.Context, pl *Plan, opt Exec) ([]join.Match, Stats, error) {
	r, err := e.prejoin(ctx, pl, opt)
	if err != nil {
		return nil, r.st, err
	}
	var ms []join.Match
	if opt.Order == OrderByProb {
		tops, err := e.joinTopK(ctx, pl, opt, r)
		if err != nil {
			return nil, r.st, err
		}
		kept := 0
		for _, t := range tops {
			kept += len(t.heap)
		}
		if opt.Limit > 0 {
			kept = min(kept, opt.Limit)
		}
		r.endJoin(kept)
		t0 := time.Now()
		ms, r.st.Truncated = mergeTopK(tops, opt.Limit)
		r.endCollect(t0, 1)
	} else {
		cols, err := e.joinCollect(ctx, pl, opt, r)
		if err != nil {
			return nil, r.st, err
		}
		found := 0
		for i := range cols {
			found += cols[i].total
		}
		r.endJoin(found)
		t0 := time.Now()
		var workers int
		ms, workers = sortMerge(cols)
		r.st.Truncated = opt.Limit > 0 && len(ms) >= opt.Limit
		r.endCollect(t0, workers)
	}
	r.st.Matched = len(ms)
	r.st.Total = time.Since(r.start)
	return ms, r.st, nil
}

// prejoin runs the stages Run and Collect share: candidate retrieval,
// k-partite build, joint reduction, and the adaptive join reorder. On error
// the returned run still carries the stats of the stages that completed.
func (e *Executor) prejoin(ctx context.Context, pl *Plan, opt Exec) (*run, error) {
	r := &run{
		start: time.Now(),
		st: Stats{
			Plan:         pl.Tree,
			NumPaths:     len(pl.Dec.Paths),
			PlannedOrder: pl.Order,
		},
		g: e.ix.Graph(),
	}
	st := &r.st
	q := pl.Query
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Candidate retrieval with context pruning (Section 5.2.2), fanned out
	// per path, optionally served from the generation's candidate cache.
	t0 := time.Now()
	sets, cstats, err := candidates.Find(ctx, e.ix, q, pl.Dec, pl.Alpha, workers, opt.CandCache)
	if err != nil {
		return r, err
	}
	st.SSPath = cstats.SSPath
	st.SSContext = cstats.SSContext
	st.CandidateTime = time.Since(t0)
	estTotal, obsTotal, pruned := 0.0, 0.0, int64(0)
	for i := range pl.Dec.Paths {
		dp := &pl.Dec.Paths[i]
		estTotal += dp.Card
		obsTotal += float64(cstats.Initial[i])
		pruned += int64(cstats.Initial[i] - cstats.Kept[i])
		// Calibration compares against the raw (uncalibrated) estimate, so
		// re-running a cached plan re-asserts the same target instead of
		// compounding a correction on every execution.
		if i < len(pl.RawCards) {
			e.calib.Observe(len(dp.Labels), pl.RawCards[i], float64(cstats.Initial[i]))
		}
	}
	st.Stages = append(st.Stages, StageStats{
		Name: "candidates", Micros: Micros(st.CandidateTime), StartMicros: Micros(t0.Sub(r.start)),
		EstRows: estTotal, ObsRows: obsTotal, Pruned: pruned, Workers: workers,
		CacheHits: cstats.CacheHits, CacheMisses: cstats.CacheMisses, CacheBypassed: cstats.CacheBypassed,
	})

	// Join-candidates / k-partite graph (Section 5.2.3), pairs fanned out
	// across the same pool.
	t0 = time.Now()
	kg, err := kpartite.Build(ctx, r.g, q, pl.Dec, sets, pl.Alpha, workers)
	if err != nil {
		return r, err
	}
	r.kg = kg
	st.BuildTime = time.Since(t0)
	st.Stages = append(st.Stages, StageStats{
		Name: "build", Micros: Micros(st.BuildTime), StartMicros: Micros(t0.Sub(r.start)),
		ObsRows: float64(kg.NumLinks()), Workers: workers,
	})

	// Joint search space reduction (Section 5.2.4), when the plan says so.
	t0 = time.Now()
	ssBefore := kg.SearchSpace()
	before := 0
	for p := 0; p < kg.NumPartitions(); p++ {
		before += kg.AliveCount(p)
	}
	if pl.Reduce {
		rst, err := kg.Reduce(ctx, workers)
		if err != nil {
			return r, err
		}
		st.SSAfterStructure = rst.SSAfterStructure
		st.SSFinal = rst.SSAfterUpperbound
		st.ReductionRounds = rst.Rounds
	} else {
		st.SSAfterStructure = kg.SearchSpace()
		st.SSFinal = st.SSAfterStructure
	}
	after := 0
	for p := 0; p < kg.NumPartitions(); p++ {
		after += kg.AliveCount(p)
	}
	st.ReduceTime = time.Since(t0)
	st.Stages = append(st.Stages, StageStats{
		Name: "reduce", Micros: Micros(st.ReduceTime), StartMicros: Micros(t0.Sub(r.start)),
		EstRows: ssBefore, ObsRows: st.SSFinal, Pruned: int64(before - after),
	})

	// Adaptive join reorder: rerun the plan's order heuristic with the
	// observed alive counts in place of the histogram estimates. The match
	// set is order-invariant, so this is purely a cost move — and it uses
	// real numbers where planning had only estimates. It is timed as part
	// of the join stage.
	r.t0 = time.Now()
	obsCards := make([]float64, kg.NumPartitions())
	for p := range obsCards {
		obsCards[p] = float64(kg.AliveCount(p))
	}
	r.order = join.OrderWithCards(pl.Dec, pl.OrderMode, obsCards)
	st.ExecOrder = r.order
	r.par = opt.Parallelism
	if r.par == 0 {
		r.par = runtime.GOMAXPROCS(0)
	}
	return r, nil
}

// endJoin closes the join stage (Section 5.2.5, final match generation),
// which produced the given number of result matches.
func (r *run) endJoin(matched int) {
	r.st.JoinTime = time.Since(r.t0)
	r.st.Stages = append(r.st.Stages, StageStats{
		Name: "join", Micros: Micros(r.st.JoinTime), StartMicros: Micros(r.t0.Sub(r.start)),
		EstRows: r.st.SSFinal, ObsRows: float64(matched),
	})
}

// endCollect records the collect stage that began at t0.
func (r *run) endCollect(t0 time.Time, workers int) {
	r.st.CollectTime = time.Since(t0)
	r.st.Stages = append(r.st.Stages, StageStats{
		Name: "collect", Micros: Micros(r.st.CollectTime), StartMicros: Micros(t0.Sub(r.start)),
		Workers: workers,
	})
}

// streamEmit drives the join enumeration straight into yield, stopping the
// enumeration (not just the emission) when Limit is reached or the consumer
// returns false.
func (e *Executor) streamEmit(ctx context.Context, pl *Plan, opt Exec, r *run, yield func(join.Match) bool) error {
	st := &r.st
	return join.FindMatchesFunc(ctx, r.g, pl.Query, pl.Dec, r.kg, r.order, pl.Alpha, func(m join.Match) bool {
		st.Matched++
		if !yield(m) {
			st.Truncated = true
			return false
		}
		if opt.Limit > 0 && st.Matched >= opt.Limit {
			st.Truncated = true
			return false
		}
		return true
	})
}

// streamEmitParallel fans the per-worker match streams into one channel so
// the caller's yield keeps its serial contract: the morsel workers enumerate
// concurrently, the consumer (this goroutine) emits. Limit or a false yield
// closes the stop channel, which unblocks every producer send and stops all
// workers promptly. Collect does not come through here: it gives every
// worker its own collector instead.
func (e *Executor) streamEmitParallel(ctx context.Context, pl *Plan, opt Exec, r *run, yield func(join.Match) bool) error {
	st := &r.st
	ch := make(chan join.Match, 4*r.par)
	stop := make(chan struct{})
	done := make(chan struct{})
	var jerr error
	go func() {
		defer close(done)
		jerr = join.FindMatchesParallel(ctx, r.g, pl.Query, pl.Dec, r.kg, r.order, pl.Alpha, r.par, func(_ int, m join.Match) bool {
			select {
			case ch <- m:
				return true
			case <-stop:
				return false
			}
		})
		close(ch)
	}()
	stopped := false
	for m := range ch {
		st.Matched++
		keep := yield(m)
		if !keep || (opt.Limit > 0 && st.Matched >= opt.Limit) {
			st.Truncated = true
			stopped = true
			close(stop)
			break
		}
	}
	<-done
	if stopped {
		return nil
	}
	// The producers may have finished (and reported no error) before a
	// cancellation that raced with the last buffered matches being drained;
	// re-check so a cancel-from-yield surfaces as ctx.Err() exactly like the
	// sequential path's tail check.
	if jerr == nil {
		jerr = ctx.Err()
	}
	return jerr
}

// joinTopK runs the join to completion with one bounded min-heap per
// worker — no cross-worker synchronization on the hot path. At width 1 the
// join is the sequential enumeration into a single heap.
func (e *Executor) joinTopK(ctx context.Context, pl *Plan, opt Exec, r *run) ([]*topK, error) {
	tops := make([]*topK, r.par)
	for i := range tops {
		tops[i] = newTopK(opt.Limit)
	}
	err := join.FindMatchesParallel(ctx, r.g, pl.Query, pl.Dec, r.kg, r.order, pl.Alpha, r.par, func(w int, m join.Match) bool {
		tops[w].offer(m)
		return true
	})
	return tops, err
}

// mergeTopK merges per-worker heaps into the global top-limit, best-first,
// and reports whether matches beyond it were discarded. Because the
// enumeration is exhaustive and betterMatch is a total order, the result is
// the same at every join width.
func mergeTopK(tops []*topK, limit int) ([]join.Match, bool) {
	merged := tops[0]
	offered := len(merged.heap) + merged.dropped
	if len(tops) > 1 {
		merged = newTopK(limit)
		offered = 0
		for _, t := range tops {
			offered += len(t.heap) + t.dropped
			for _, m := range t.heap {
				merged.offer(m)
			}
		}
	}
	return merged.sorted(), limit > 0 && offered > limit
}

// compareByProb is the probability total order used by OrderByProb: higher
// Pr first, equal probabilities broken by mapping so the ranking — and in
// particular the top-K cut — is fully deterministic.
func compareByProb(a, b join.Match) int {
	if c := cmp.Compare(b.Pr(), a.Pr()); c != 0 {
		return c
	}
	return slices.Compare(a.Mapping, b.Mapping)
}

// betterMatch reports whether a ranks strictly before b under compareByProb.
func betterMatch(a, b join.Match) bool { return compareByProb(a, b) < 0 }

// topK retains the best matches under compareByProb. With limit > 0 it is a
// bounded min-heap whose root is the worst retained match (O(limit) memory,
// O(log limit) per offer); with limit == 0 it keeps everything.
type topK struct {
	limit   int
	heap    matchHeap
	dropped int
}

func newTopK(limit int) *topK { return &topK{limit: limit} }

// offer considers one match for the retained set.
func (t *topK) offer(m join.Match) {
	if t.limit <= 0 {
		t.heap = append(t.heap, m)
		return
	}
	if len(t.heap) < t.limit {
		heap.Push(&t.heap, m)
		return
	}
	if betterMatch(m, t.heap[0]) {
		t.heap[0] = m
		heap.Fix(&t.heap, 0)
	}
	t.dropped++
}

// sorted consumes the retained set, returning it best-first.
func (t *topK) sorted() []join.Match {
	ms := []join.Match(t.heap)
	t.heap = nil
	slices.SortFunc(ms, compareByProb)
	return ms
}

// matchHeap is a min-heap under compareByProb: the root is the worst retained
// match, which a better offer evicts.
type matchHeap []join.Match

func (h matchHeap) Len() int           { return len(h) }
func (h matchHeap) Less(i, j int) bool { return betterMatch(h[j], h[i]) }
func (h matchHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *matchHeap) Push(x any)        { *h = append(*h, x.(join.Match)) }
func (h *matchHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// SortMatches orders matches by CompareMatches for deterministic output.
func SortMatches(ms []join.Match) {
	slices.SortFunc(ms, CompareMatches)
}

// CompareMatches is the collect total order: mappings ascending
// lexicographically, then probability descending, so even elementwise-equal
// mappings sort the same way across runs. Collect's per-worker sort and its
// merge share it, and the router's cluster merge mirrors it.
func CompareMatches(a, b join.Match) int {
	if c := slices.Compare(a.Mapping, b.Mapping); c != 0 {
		return c
	}
	return cmp.Compare(b.Pr(), a.Pr())
}
