package router

import (
	"math/rand"
	"testing"

	"repro/internal/entity"
	"repro/internal/join"
	"repro/internal/plan"
	"repro/internal/server"
)

// TestEmitLessAgreesWithCompareMatches: the router's collect merge order
// must be the single-node collect order, or the routed answer stops being
// byte-identical. Mappings are drawn from a tiny id range so equal prefixes,
// equal mappings and equal probabilities all occur, along with mappings of
// different lengths.
func TestEmitLessAgreesWithCompareMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	probs := []float64{0.25, 0.5, 1}
	draw := func() (join.Match, server.MatchEntry) {
		n := 1 + rng.Intn(3)
		m := join.Match{
			Mapping: make([]entity.ID, n),
			Prle:    probs[rng.Intn(len(probs))],
			Prn:     probs[rng.Intn(len(probs))],
		}
		e := server.MatchEntry{Mapping: make([]uint32, n), Pr: m.Pr(), Prle: m.Prle, Prn: m.Prn}
		for i := range m.Mapping {
			m.Mapping[i] = entity.ID(rng.Intn(3))
			e.Mapping[i] = uint32(m.Mapping[i])
		}
		return m, e
	}
	for i := 0; i < 20000; i++ {
		a, ea := draw()
		b, eb := draw()
		if got, want := emitLess(&ea, &eb), plan.CompareMatches(a, b) < 0; got != want {
			t.Fatalf("emitLess(%v, %v) = %v, CompareMatches says %v", ea, eb, got, want)
		}
	}
}
