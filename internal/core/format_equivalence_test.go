package core_test

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/pathindex"
)

// TestFormatEquivalenceEndToEnd is the acceptance property for the packed
// index file through the whole online phase: over seeded gen.Synthetic
// PGDs, core.Match against the index Build returned and against the same
// directory reopened — options, context tables and postings all read back
// from packed.idx — must return the same matches with bitwise-identical
// probabilities, across both decomposition strategies (the cost-based SET
// COVER planner and random decomposition). The handle is the only variable
// — same graph, same query, same seeds — so any divergence is a bug in what
// the file persists, not planner nondeterminism.
func TestFormatEquivalenceEndToEnd(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	strategies := []core.Strategy{core.StrategyOptimized, core.StrategyRandomDecomp}
	for _, seed := range seeds {
		d, err := gen.Synthetic(gen.SynthOptions{
			Refs: 30, EdgeFactor: 2, Labels: 4, UncertainFrac: 0.4,
			Groups: 2, GroupSize: 3, PairsPerGroup: 2, Seed: seed,
		})
		if err != nil {
			t.Fatalf("seed %d: Synthetic: %v", seed, err)
		}
		g, err := entity.Build(d, entity.BuildOptions{})
		if err != nil {
			t.Fatalf("seed %d: Build: %v", seed, err)
		}
		dir := filepath.Join(t.TempDir(), "ix")
		built, err := pathindex.Build(context.Background(), g, pathindex.Options{
			MaxLen: 2, Beta: 0.05, Gamma: 0.1, Dir: dir,
		})
		if err != nil {
			t.Fatalf("seed %d: pathindex.Build: %v", seed, err)
		}
		t.Cleanup(func() { built.Close() })
		reopened, err := pathindex.Open(dir, g)
		if err != nil {
			t.Fatalf("seed %d: Open: %v", seed, err)
		}
		t.Cleanup(func() { reopened.Close() })

		rng := rand.New(rand.NewSource(seed * 101))
		for qi := 0; qi < 4; qi++ {
			q, err := gen.RandomQuery(rng, g.NumLabels(), 2+rng.Intn(2), 3)
			if err != nil {
				t.Fatalf("seed %d: RandomQuery: %v", seed, err)
			}
			for _, alpha := range []float64{0.02, 0.1, 0.35} {
				for _, s := range strategies {
					opts := func() core.Options {
						return core.Options{Alpha: alpha, Strategy: s,
							Rand: rand.New(rand.NewSource(seed ^ int64(qi)))}
					}
					rb, err := core.Match(context.Background(), built, q, opts())
					if err != nil {
						t.Fatalf("seed %d q%d %v α=%v built: %v", seed, qi, s, alpha, err)
					}
					rr, err := core.Match(context.Background(), reopened, q, opts())
					if err != nil {
						t.Fatalf("seed %d q%d %v α=%v reopened: %v", seed, qi, s, alpha, err)
					}
					if len(rb.Matches) != len(rr.Matches) {
						t.Fatalf("seed %d q%d %v α=%v: %d vs %d matches\nquery:\n%s",
							seed, qi, s, alpha, len(rb.Matches), len(rr.Matches), q.Format(g.Alphabet()))
					}
					// Same seeds and inputs make the match order
					// deterministic, so compare positionally and bitwise.
					for i := range rb.Matches {
						mb, mr := rb.Matches[i], rr.Matches[i]
						if len(mb.Mapping) != len(mr.Mapping) {
							t.Fatalf("seed %d q%d %v α=%v match %d: mapping size", seed, qi, s, alpha, i)
						}
						for j := range mb.Mapping {
							if mb.Mapping[j] != mr.Mapping[j] {
								t.Fatalf("seed %d q%d %v α=%v match %d: mapping differs", seed, qi, s, alpha, i)
							}
						}
						if math.Float64bits(mb.Pr()) != math.Float64bits(mr.Pr()) {
							t.Fatalf("seed %d q%d %v α=%v match %d: Pr %v vs %v",
								seed, qi, s, alpha, i, mb.Pr(), mr.Pr())
						}
					}
				}
			}
		}
	}
}
