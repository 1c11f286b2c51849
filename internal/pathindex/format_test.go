package pathindex

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/entity"
	"repro/internal/prob"
)

// assertReadersBitwiseEqual drives the full read surface of two indexes —
// every stored sequence in both orientations, a grid of α values spanning
// on-demand, in-range, and above-top-bucket cases, cardinality estimates,
// and the context tables — and requires bitwise agreement: same match
// order, same node sequences, same Prle/Prn bits, same estimate bits.
func assertReadersBitwiseEqual(t *testing.T, a, b *Index, g *entity.Graph) {
	t.Helper()
	seqsA, seqsB := a.Sequences(), b.Sequences()
	if !reflect.DeepEqual(seqsA, seqsB) {
		t.Fatalf("sequence sets differ: %d vs %d", len(seqsA), len(seqsB))
	}
	if a.Stats().Entries != b.Stats().Entries {
		t.Fatalf("entry counts differ: %d vs %d", a.Stats().Entries, b.Stats().Entries)
	}
	alphas := []float64{0.01, a.Beta(), a.Beta() + 1e-9, 0.1, 0.15, 0.31, 0.5, 0.77, 0.99, 1.0}
	probe := func(X []prob.LabelID) {
		for _, alpha := range alphas {
			ma, errA := a.Lookup(X, alpha)
			mb, errB := b.Lookup(X, alpha)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("X=%v α=%v: error mismatch: %v vs %v", X, alpha, errA, errB)
			}
			if len(ma) != len(mb) {
				t.Fatalf("X=%v α=%v: %d vs %d matches", X, alpha, len(ma), len(mb))
			}
			for i := range ma {
				if !reflect.DeepEqual(ma[i].Nodes, mb[i].Nodes) ||
					math.Float64bits(ma[i].Prle) != math.Float64bits(mb[i].Prle) ||
					math.Float64bits(ma[i].Prn) != math.Float64bits(mb[i].Prn) {
					t.Fatalf("X=%v α=%v match %d: %+v vs %+v", X, alpha, i, ma[i], mb[i])
				}
			}
			ca, cb := a.Cardinality(X, alpha), b.Cardinality(X, alpha)
			if math.Float64bits(ca) != math.Float64bits(cb) {
				t.Fatalf("X=%v α=%v: cardinality %v vs %v", X, alpha, ca, cb)
			}
		}
	}
	for _, X := range seqsA {
		probe(X)
		probe(reverseLabels(X)) // the reversed orientation exercises canonicalization
	}
	probe([]prob.LabelID{0, 0}) // palindromic, possibly absent

	nl := g.NumLabels()
	for v := 0; v < g.NumNodes(); v++ {
		for s := 0; s < nl; s++ {
			id, sig := entity.ID(v), prob.LabelID(s)
			if a.Context().Card(id, sig) != b.Context().Card(id, sig) ||
				math.Float64bits(a.Context().PPU(id, sig)) != math.Float64bits(b.Context().PPU(id, sig)) ||
				math.Float64bits(a.Context().FPU(id, sig)) != math.Float64bits(b.Context().FPU(id, sig)) {
				t.Fatalf("context (%d,%d) differs", v, s)
			}
		}
	}
}

// TestFormatEquivalence: packed.idx is the index's only persistent form,
// so an index reopened from its directory must be indistinguishable, bit
// for bit, from the handle Build returned — which answers context queries
// from the tables ComputeContext produced in memory, not from the file.
func TestFormatEquivalence(t *testing.T) {
	t.Run("motivating", func(t *testing.T) {
		g := motivating(t)
		built, reopened := buildAndReopen(t, g, Options{MaxLen: 2, Beta: 0.02, Gamma: 0.1})
		assertReadersBitwiseEqual(t, built, reopened, g)
	})
	for _, seed := range []int64{1, 2, 3} {
		t.Run("synthetic", func(t *testing.T) {
			g := syntheticGraph(t, seed)
			built, reopened := buildAndReopen(t, g, Options{MaxLen: 3, Beta: 0.05, Gamma: 0.1})
			assertReadersBitwiseEqual(t, built, reopened, g)
		})
	}
}
