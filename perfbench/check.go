package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/entity"
	"repro/internal/join"
	"repro/internal/query"
	"repro/internal/server"
)

// prTolerance is the slack the join stage itself allows on Pr ≥ α.
const prTolerance = 1e-12

// digest hashes a match list in order: every mapping and the exact float
// bits of Prle and Prn, so two lists digest equal only when they are
// bitwise-identical.
func digest(ms []join.Match) [32]byte {
	h := sha256.New()
	var buf [8]byte
	for _, m := range ms {
		binary.LittleEndian.PutUint32(buf[:4], uint32(len(m.Mapping)))
		h.Write(buf[:4])
		for _, v := range m.Mapping {
			binary.LittleEndian.PutUint32(buf[:4], uint32(v))
			h.Write(buf[:4])
		}
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(m.Prle))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(m.Prn))
		h.Write(buf[:])
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// checkCollect compares a collected answer with the reference digest.
func checkCollect(ms []join.Match, want [32]byte) error {
	if digest(ms) != want {
		return fmt.Errorf("collect answer (%d matches) differs from the reference", len(ms))
	}
	return nil
}

// checkFirstMatch validates a Limit-1 answer from first principles: the
// match's Prle and Prn are recomputed from the graph, its probability
// clears α, its nodes are reference-disjoint, and whether a match exists
// agrees with the reference.
func checkFirstMatch(g *entity.Graph, q *query.Query, alpha float64, ms []join.Match, refHas bool) error {
	if len(ms) > 1 {
		return fmt.Errorf("limit 1 returned %d matches", len(ms))
	}
	if (len(ms) == 1) != refHas {
		return fmt.Errorf("returned %d matches, reference has a match: %v", len(ms), refHas)
	}
	for _, m := range ms {
		if err := checkMatch(g, q, alpha, m); err != nil {
			return err
		}
	}
	return nil
}

// checkMatch recomputes one match's probability components.
func checkMatch(g *entity.Graph, q *query.Query, alpha float64, m join.Match) error {
	if len(m.Mapping) != q.NumNodes() {
		return fmt.Errorf("mapping has %d nodes, query has %d", len(m.Mapping), q.NumNodes())
	}
	a := entity.Assignment{Nodes: m.Mapping}
	for i := 0; i < q.NumNodes(); i++ {
		if m.Mapping[i] < 0 || int(m.Mapping[i]) >= g.NumNodes() {
			return fmt.Errorf("mapping %v names an unknown entity", m.Mapping)
		}
		a.Labels = append(a.Labels, q.Label(query.NodeID(i)))
	}
	for _, e := range q.Edges() {
		a.Edges = append(a.Edges, [2]int{int(e[0]), int(e[1])})
	}
	if prle := g.Prle(a); !relEqual(prle, m.Prle) {
		return fmt.Errorf("mapping %v: Prle %v, recomputed %v", m.Mapping, m.Prle, prle)
	}
	if prn := g.Prn(m.Mapping); !relEqual(prn, m.Prn) {
		return fmt.Errorf("mapping %v: Prn %v, recomputed %v", m.Mapping, m.Prn, prn)
	}
	if m.Pr()+prTolerance < alpha {
		return fmt.Errorf("mapping %v: Pr %v below alpha %v", m.Mapping, m.Pr(), alpha)
	}
	if !g.NodesRefsDisjoint(m.Mapping) {
		return fmt.Errorf("mapping %v: nodes share a reference", m.Mapping)
	}
	return nil
}

// relEqual compares within 1e-12 relative.
func relEqual(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}

// checkServed validates a 200 /match body under load, where the live graph
// moves underneath and answers cannot be recomputed: the match count is
// consistent and within the limit, every pr is exactly prle·prn and clears
// α, and every mapping names distinct entities.
func checkServed(res *server.MatchResponse, limit int, alpha float64) error {
	if res.NumMatches != len(res.Matches) {
		return fmt.Errorf("num_matches %d but %d matches", res.NumMatches, len(res.Matches))
	}
	if limit > 0 && len(res.Matches) > limit {
		return fmt.Errorf("%d matches exceed limit %d", len(res.Matches), limit)
	}
	for _, m := range res.Matches {
		if m.Pr != m.Prle*m.Prn {
			return fmt.Errorf("mapping %v: pr %v is not prle·prn = %v", m.Mapping, m.Pr, m.Prle*m.Prn)
		}
		if m.Pr+prTolerance < alpha {
			return fmt.Errorf("mapping %v: Pr %v below alpha %v", m.Mapping, m.Pr, alpha)
		}
		for i, v := range m.Mapping {
			for _, w := range m.Mapping[:i] {
				if v == w {
					return fmt.Errorf("mapping %v repeats entity %d", m.Mapping, v)
				}
			}
		}
	}
	return nil
}

// checkSameMatches compares a served answer with the engine's, exactly:
// same order, same mappings, same float bits.
func checkSameMatches(got []server.MatchEntry, want []join.Match) error {
	if len(got) != len(want) {
		return fmt.Errorf("served %d matches, engine %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if len(g.Mapping) != len(w.Mapping) {
			return fmt.Errorf("match %d: mapping %v, engine %v", i, g.Mapping, w.Mapping)
		}
		for k := range w.Mapping {
			if g.Mapping[k] != uint32(w.Mapping[k]) {
				return fmt.Errorf("match %d: mapping %v, engine %v", i, g.Mapping, w.Mapping)
			}
		}
		if math.Float64bits(g.Prle) != math.Float64bits(w.Prle) || math.Float64bits(g.Prn) != math.Float64bits(w.Prn) {
			return fmt.Errorf("match %d: (Prle, Prn) (%v, %v), engine (%v, %v)", i, g.Prle, g.Prn, w.Prle, w.Prn)
		}
	}
	return nil
}
