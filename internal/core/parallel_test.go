package core_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/join"
	"repro/internal/pathindex"
	"repro/internal/plan"
	"repro/internal/query"
)

// matchesIdentical demands exact equality — mapping, Prle, Prn (bitwise),
// and order — between two collected result sets. The parallel join must be
// indistinguishable from the sequential one after the deterministic sort,
// not merely equal within a tolerance: every match's probability components
// are computed by the same fixed-order finalize in both paths.
func matchesIdentical(t *testing.T, label string, want, got []join.Match) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d matches, want %d", label, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if len(w.Mapping) != len(g.Mapping) {
			t.Fatalf("%s: match %d mapping length %d, want %d", label, i, len(g.Mapping), len(w.Mapping))
		}
		for k := range w.Mapping {
			if w.Mapping[k] != g.Mapping[k] {
				t.Fatalf("%s: match %d mapping[%d] = %d, want %d", label, i, k, g.Mapping[k], w.Mapping[k])
			}
		}
		if w.Prle != g.Prle || w.Prn != g.Prn {
			t.Fatalf("%s: match %d probabilities (%v, %v), want (%v, %v)",
				label, i, g.Prle, g.Prn, w.Prle, w.Prn)
		}
	}
}

// TestParallelCollectEquivalence is the parallel-correctness property: on
// seeded random synthetic PGDs, collect-mode results at Parallelism 2, 4,
// and 8 — through Match and through MatchPlan on a prepared plan — are
// exactly equal (mapping, Prle, Prn, order) to the sequential run, across
// both decomposition strategies.
func TestParallelCollectEquivalence(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:2]
	}
	strategies := []core.Strategy{core.StrategyOptimized, core.StrategyRandomDecomp}
	for _, seed := range seeds {
		d, err := gen.Synthetic(gen.SynthOptions{
			Refs:          30,
			EdgeFactor:    2,
			Labels:        4,
			UncertainFrac: 0.4,
			Groups:        2,
			GroupSize:     3,
			PairsPerGroup: 2,
			Seed:          seed,
		})
		if err != nil {
			t.Fatalf("seed %d: Synthetic: %v", seed, err)
		}
		g, err := entity.Build(d, entity.BuildOptions{})
		if err != nil {
			t.Fatalf("seed %d: Build: %v", seed, err)
		}
		ix := buildIx(t, g, 2, 0.05)

		rng := rand.New(rand.NewSource(seed * 313))
		for qi := 0; qi < 3; qi++ {
			q, err := gen.RandomQuery(rng, g.NumLabels(), 2+rng.Intn(2), 3)
			if err != nil {
				t.Fatalf("seed %d: RandomQuery: %v", seed, err)
			}
			for _, s := range strategies {
				opts := func(par int) core.Options {
					return core.Options{
						Alpha:       0.1,
						Strategy:    s,
						Rand:        rand.New(rand.NewSource(seed ^ int64(qi))),
						Parallelism: par,
					}
				}
				seq, err := core.Match(context.Background(), ix, q, opts(1))
				if err != nil {
					t.Fatalf("seed %d q%d %v: sequential: %v", seed, qi, s, err)
				}
				// MatchPlan is the cached-plan collect path; the plan is
				// prepared once and run at every width.
				pl, err := core.Prepare(context.Background(), ix, q, opts(1))
				if err != nil {
					t.Fatalf("seed %d q%d %v: Prepare: %v", seed, qi, s, err)
				}
				for _, par := range []int{2, 4, 8} {
					res, err := core.Match(context.Background(), ix, q, opts(par))
					if err != nil {
						t.Fatalf("seed %d q%d %v P=%d: %v", seed, qi, s, par, err)
					}
					matchesIdentical(t, q.Format(g.Alphabet()), seq.Matches, res.Matches)
					if res.Stats.Matched != seq.Stats.Matched {
						t.Fatalf("seed %d q%d %v P=%d: Matched %d, want %d",
							seed, qi, s, par, res.Stats.Matched, seq.Stats.Matched)
					}
					pres, err := core.MatchPlan(context.Background(), ix, pl, opts(par))
					if err != nil {
						t.Fatalf("seed %d q%d %v P=%d: MatchPlan: %v", seed, qi, s, par, err)
					}
					matchesIdentical(t, "MatchPlan "+q.Format(g.Alphabet()), seq.Matches, pres.Matches)
				}
			}
		}
	}
}

// TestParallelTopKEquivalence: OrderByProb output is deterministic under
// parallelism — the merged per-worker heaps must reproduce the sequential
// top-K stream byte for byte, including the Truncated flag.
func TestParallelTopKEquivalence(t *testing.T) {
	d, err := gen.Synthetic(gen.SynthOptions{
		Refs: 30, EdgeFactor: 2, Labels: 4, UncertainFrac: 0.4,
		Groups: 2, GroupSize: 3, PairsPerGroup: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix := buildIx(t, g, 2, 0.05)
	rng := rand.New(rand.NewSource(99))
	q, err := gen.RandomQuery(rng, g.NumLabels(), 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{0, 1, 5} {
		run := func(par int) ([]join.Match, core.Stats) {
			var ms []join.Match
			st, err := core.MatchStream(context.Background(), ix, q, core.Options{
				Alpha: 0.05, Limit: limit, Order: core.OrderByProb, Parallelism: par,
			}, func(m join.Match) bool {
				ms = append(ms, m)
				return true
			})
			if err != nil {
				t.Fatalf("limit %d P=%d: %v", limit, par, err)
			}
			return ms, st
		}
		seq, seqSt := run(1)
		for _, par := range []int{2, 4, 8} {
			got, gotSt := run(par)
			matchesIdentical(t, "topk", seq, got)
			if gotSt.Truncated != seqSt.Truncated {
				t.Fatalf("limit %d P=%d: Truncated %v, want %v", limit, par, gotSt.Truncated, seqSt.Truncated)
			}
		}
	}
}

// TestParallelLimitStops: an OrderEmit stream with a Limit stops the
// parallel enumeration after exactly Limit yields and flags truncation.
func TestParallelLimitStops(t *testing.T) {
	d, err := gen.Synthetic(gen.SynthOptions{
		Refs: 30, EdgeFactor: 2, Labels: 4, UncertainFrac: 0.4,
		Groups: 2, GroupSize: 3, PairsPerGroup: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix := buildIx(t, g, 2, 0.05)
	rng := rand.New(rand.NewSource(17))
	q, err := gen.RandomQuery(rng, g.NumLabels(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	full, err := core.Match(context.Background(), ix, q, core.Options{Alpha: 0.05, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Matches) < 2 {
		t.Skipf("workload too sparse: %d matches", len(full.Matches))
	}
	seen := 0
	st, err := core.MatchStream(context.Background(), ix, q,
		core.Options{Alpha: 0.05, Limit: 1, Parallelism: 4},
		func(join.Match) bool {
			seen++
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 1 || st.Matched != 1 {
		t.Fatalf("limit 1: yielded %d, Matched %d", seen, st.Matched)
	}
	if !st.Truncated {
		t.Fatal("limit-stopped parallel run not flagged Truncated")
	}
}

// TestParallelCancellationMidStream: cancelling the context from inside the
// yield of a parallel stream aborts every worker and surfaces ctx.Err().
func TestParallelCancellationMidStream(t *testing.T) {
	d, err := gen.Synthetic(gen.SynthOptions{
		Refs: 30, EdgeFactor: 2, Labels: 4, UncertainFrac: 0.4,
		Groups: 2, GroupSize: 3, PairsPerGroup: 2, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix := buildIx(t, g, 2, 0.05)
	rng := rand.New(rand.NewSource(23))
	q, err := gen.RandomQuery(rng, g.NumLabels(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	full, err := core.Match(context.Background(), ix, q, core.Options{Alpha: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Matches) == 0 {
		t.Skip("workload has no matches")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	_, err = core.MatchStream(ctx, ix, q, core.Options{Alpha: 0.05, Parallelism: 4},
		func(join.Match) bool {
			seen++
			cancel()
			return true
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel mid-stream cancel: err = %v, want context.Canceled", err)
	}
	if seen == 0 {
		t.Fatal("yield never ran before cancellation")
	}
}

// TestParallelismValidation: a negative Parallelism is rejected.
func TestParallelismValidation(t *testing.T) {
	d, err := gen.Synthetic(gen.SynthOptions{
		Refs: 12, EdgeFactor: 2, Labels: 3, UncertainFrac: 0.3,
		Groups: 1, GroupSize: 2, PairsPerGroup: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix := buildIx(t, g, 1, 0.05)
	rng := rand.New(rand.NewSource(3))
	q, err := gen.RandomQuery(rng, g.NumLabels(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Match(context.Background(), ix, q, core.Options{Alpha: 0.5, Parallelism: -1}); err == nil {
		t.Error("negative parallelism accepted")
	}
}

// collectWorkload builds a synthetic PGD and returns a query whose full
// match set is large enough that a P=4 collect runs a real parallel join:
// a random 4-node path at a low α.
func collectWorkload(t *testing.T) (*pathindex.Index, *query.Query, float64) {
	t.Helper()
	d, err := gen.Synthetic(gen.SynthOptions{
		Refs: 400, EdgeFactor: 3, Labels: 3, UncertainFrac: 0.3,
		Groups: 4, GroupSize: 3, PairsPerGroup: 2, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix := buildIx(t, g, 2, 0.05)
	const alpha = 0.05
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 20; i++ {
		q, err := gen.RandomQuery(rng, g.NumLabels(), 4, 3)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Match(context.Background(), ix, q, core.Options{Alpha: alpha, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) >= 3000 {
			return ix, q, alpha
		}
	}
	t.Fatal("no match-rich query found")
	return nil, nil, 0
}

// TestParallelCollectLimit: on a match-rich query an unlimited P=4 collect
// equals the sequential one, and a Limit collect at P=4 returns exactly
// Limit matches, sorted, each one (bitwise) a member of the full match set,
// and flags truncation.
func TestParallelCollectLimit(t *testing.T) {
	ix, q, alpha := collectWorkload(t)
	full, err := core.Match(context.Background(), ix, q, core.Options{Alpha: alpha, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := core.Match(context.Background(), ix, q, core.Options{Alpha: alpha, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	matchesIdentical(t, "unlimited P=4", full.Matches, par.Matches)
	type probs struct{ prle, prn float64 }
	want := make(map[string]probs, len(full.Matches))
	for _, m := range full.Matches {
		want[fmt.Sprint(m.Mapping)] = probs{m.Prle, m.Prn}
	}
	for _, limit := range []int{1, 7, len(full.Matches) / 3} {
		res, err := core.Match(context.Background(), ix, q, core.Options{Alpha: alpha, Limit: limit, Parallelism: 4})
		if err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		if len(res.Matches) != limit || res.Stats.Matched != limit {
			t.Fatalf("limit %d: %d matches, Matched %d", limit, len(res.Matches), res.Stats.Matched)
		}
		if !res.Stats.Truncated {
			t.Fatalf("limit %d: not flagged Truncated", limit)
		}
		for i, m := range res.Matches {
			if p, ok := want[fmt.Sprint(m.Mapping)]; !ok || p != (probs{m.Prle, m.Prn}) {
				t.Fatalf("limit %d: match %d %v (%v, %v) not in the full set", limit, i, m.Mapping, m.Prle, m.Prn)
			}
			if i > 0 && plan.CompareMatches(res.Matches[i-1], m) >= 0 {
				t.Fatalf("limit %d: matches %d and %d out of order", limit, i-1, i)
			}
		}
	}
}

// tripCtx cancels itself on its trip-th Err call, so a cancellation lands
// at a chosen point inside a run instead of racing a timer. trip 0 never
// cancels and just counts.
type tripCtx struct {
	context.Context
	cancel context.CancelFunc
	calls  atomic.Int64
	trip   int64
}

func newTripCtx(trip int64) *tripCtx {
	ctx, cancel := context.WithCancel(context.Background())
	return &tripCtx{Context: ctx, cancel: cancel, trip: trip}
}

func (c *tripCtx) Err() error {
	if c.calls.Add(1) == c.trip {
		c.cancel()
	}
	return c.Context.Err()
}

// TestParallelCollectCancellation: a cancellation in the middle of a P=4
// collect's join returns ctx.Err(), and every worker goroutine is gone
// when the call returns.
func TestParallelCollectCancellation(t *testing.T) {
	ix, q, alpha := collectWorkload(t)
	opt := core.Options{Alpha: alpha, Parallelism: 4}
	pl, err := core.Prepare(context.Background(), ix, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Count the Err calls before the join (at the first streamed match) and
	// over a whole collect, then trip halfway through the join.
	pre := newTripCtx(0)
	var atFirst int64
	if _, err := core.MatchStreamPlan(pre, ix, pl, opt, func(join.Match) bool {
		atFirst = pre.calls.Load()
		return false
	}); err != nil {
		t.Fatal(err)
	}
	all := newTripCtx(0)
	if _, err := core.MatchPlan(all, ix, pl, opt); err != nil {
		t.Fatal(err)
	}
	total := all.calls.Load()
	if total-atFirst < 4 {
		t.Fatalf("join checks the context only %d times", total-atFirst)
	}
	base := runtime.NumGoroutine()
	ctx := newTripCtx(atFirst + (total-atFirst)/2)
	defer ctx.cancel()
	res, err := core.MatchPlan(ctx, ix, pl, opt)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("canceled collect: res %v, err %v; want nil, context.Canceled", res, err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after the canceled collect, %d before", n, base)
	}
}

// TestCollectStageCoverage: a run's stage rows account for its Total —
// through Match (with the plan row), MatchPlan, MatchStream and a Limit: 1
// collect, sequential and parallel. Every collect also carries its collect
// row. The best of a few runs is taken so a stray GC pause between two
// stages cannot fail the check.
func TestCollectStageCoverage(t *testing.T) {
	ix, q, alpha := collectWorkload(t)
	ctx := context.Background()
	for _, par := range []int{1, 2} {
		opt := core.Options{Alpha: alpha, Parallelism: par}
		limit1 := opt
		limit1.Limit = 1
		pl, err := core.Prepare(ctx, ix, q, opt)
		if err != nil {
			t.Fatal(err)
		}
		collect := func(res *core.Result, err error) (core.Stats, error) {
			if err != nil {
				return core.Stats{}, err
			}
			return res.Stats, nil
		}
		runs := []struct {
			name    string
			collect bool // a collect reports a collect row
			run     func() (core.Stats, error)
		}{
			{"Match", true, func() (core.Stats, error) { return collect(core.Match(ctx, ix, q, opt)) }},
			{"MatchPlan", true, func() (core.Stats, error) { return collect(core.MatchPlan(ctx, ix, pl, opt)) }},
			{"MatchStream", false, func() (core.Stats, error) {
				return core.MatchStream(ctx, ix, q, opt, func(join.Match) bool { return true })
			}},
			{"Limit1", true, func() (core.Stats, error) { return collect(core.Match(ctx, ix, q, limit1)) }},
		}
		for _, r := range runs {
			best := 0.0
			for try := 0; try < 5 && best < 0.95; try++ {
				st, err := r.run()
				if err != nil {
					t.Fatal(err)
				}
				sum, hasCollect := 0.0, false
				for _, sg := range st.Stages {
					sum += sg.Micros
					hasCollect = hasCollect || sg.Name == "collect"
				}
				if r.collect && (!hasCollect || st.CollectTime <= 0) {
					t.Fatalf("%s P=%d: no collect stage in %+v", r.name, par, st.Stages)
				}
				total := plan.Micros(st.Total)
				if sum > total {
					t.Fatalf("%s P=%d: stages sum to %.1fµs, more than Total %.1fµs", r.name, par, sum, total)
				}
				best = max(best, sum/total)
			}
			if best < 0.95 {
				t.Errorf("%s P=%d: stage rows cover %.1f%% of Total, want ≥ 95%%", r.name, par, 100*best)
			}
		}
	}
}
