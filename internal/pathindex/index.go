package pathindex

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/entity"
	"repro/internal/prob"
	"repro/internal/storage/packedix"
)

// Options configures index construction.
type Options struct {
	// MaxLen is L, the maximum path length in edges (1 ≤ L ≤ MaxSupportedLen).
	MaxLen int
	// Beta is the index construction threshold β: only paths with probability
	// ≥ β are indexed (paths below are computed on demand at query time).
	Beta float64
	// Gamma is the index resolution γ: the probability bucket width.
	Gamma float64
	// Workers bounds build parallelism (0 = GOMAXPROCS).
	Workers int
	// Dir is the artifact directory (created if missing).
	Dir string
}

func (o *Options) normalize() error {
	if o.MaxLen < 1 || o.MaxLen > MaxSupportedLen {
		return fmt.Errorf("pathindex: MaxLen %d out of range [1,%d]", o.MaxLen, MaxSupportedLen)
	}
	if o.Beta <= 0 || o.Beta > 1 {
		return fmt.Errorf("pathindex: Beta %v out of range (0,1]", o.Beta)
	}
	if o.Gamma <= 0 || o.Gamma > 1 {
		return fmt.Errorf("pathindex: Gamma %v out of range (0,1]", o.Gamma)
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Dir == "" {
		return fmt.Errorf("pathindex: Dir required")
	}
	return nil
}

// BuildStats reports offline phase metrics (the quantities of Figures 6(a)
// and 6(b)).
type BuildStats struct {
	Entries       uint64        // stored index entries
	EntriesPerLen []uint64      // per path length 0..L
	Sequences     int           // distinct canonical label sequences
	Bytes         int64         // size of the index file on disk
	Duration      time.Duration // wall-clock build time
	ComponentTime time.Duration // identity component precompute share
	ContextTime   time.Duration // context information share
}

// Index is an opened path index: one packed.idx file (internal/storage/
// packedix), mapped read-only. Once built or opened, every read method —
// Lookup, Cardinality, Context, Stats — is safe for many concurrent callers
// without locking: key tables are binary-searched in the mapping, postings
// decode into caller-owned memory, and the context tables alias the
// mapping. Build itself is single-writer (storeLevel runs on one goroutine).
type Index struct {
	opt    Options
	g      *entity.Graph
	packed *packedix.File
	pw     *packedix.Writer // non-nil only during Build
	ctx    *Context
	stats  BuildStats

	probes atomic.Uint64                 // Lookup calls answered
	obs    atomic.Pointer[func(float64)] // posting-decode observer (µs)
}

// Build runs the offline phase of Section 5.1 over the entity graph:
// component probabilities are already precomputed by entity.Build; this
// computes context information and constructs the path index level by level
// (single nodes first, then extensions), in parallel with a barrier between
// lengths, then writes the packed file in one pass and maps it.
func Build(ctx context.Context, g *entity.Graph, opt Options) (*Index, error) {
	start := time.Now()
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("pathindex: %w", err)
	}
	w, err := packedix.NewWriter(packedix.Meta{
		MaxLen:   opt.MaxLen,
		NLabels:  g.NumLabels(),
		NBuckets: numBuckets(opt.Beta, opt.Gamma),
		Beta:     opt.Beta,
		Gamma:    opt.Gamma,
		Nodes:    g.NumNodes(),
		Edges:    g.NumEdges(),
	})
	if err != nil {
		return nil, err
	}
	ix := &Index{opt: opt, g: g, pw: w}

	ctxStart := time.Now()
	ix.ctx = ComputeContext(g, opt.Workers)
	ix.stats.ContextTime = time.Since(ctxStart)

	if err := ix.buildPaths(ctx); err != nil {
		return nil, err
	}
	if err := w.SetContext(ix.ctx.nLabels, ix.ctx.card, ix.ctx.ppu, ix.ctx.fpu); err != nil {
		return nil, err
	}
	path := filepath.Join(opt.Dir, packedix.FileName)
	n, err := w.WriteFile(path)
	if err != nil {
		return nil, err
	}
	ix.pw = nil
	f, err := packedix.Open(path)
	if err != nil {
		return nil, err
	}
	ix.packed = f
	ix.stats.Sequences = f.NumSeqs()
	ix.stats.Duration = time.Since(start)
	ix.stats.Bytes = n
	return ix, nil
}

// Open attaches to the packed.idx in dir, validating it against the given
// graph. The file is mapped, not loaded: cold open touches the header and
// descriptor pages only, and the context tables alias the mapping. A
// directory without packed.idx fails with an error wrapping os.ErrNotExist.
func Open(dir string, g *entity.Graph) (*Index, error) {
	f, err := packedix.Open(filepath.Join(dir, packedix.FileName))
	if err != nil {
		return nil, err
	}
	m := f.Meta()
	if m.Nodes != g.NumNodes() || m.Edges != g.NumEdges() {
		f.Close()
		return nil, fmt.Errorf("pathindex: index built for %d nodes/%d edges, graph has %d/%d",
			m.Nodes, m.Edges, g.NumNodes(), g.NumEdges())
	}
	opt := Options{MaxLen: m.MaxLen, Beta: m.Beta, Gamma: m.Gamma, Dir: dir}
	if err := opt.normalize(); err != nil {
		f.Close()
		return nil, err
	}
	nl, card, ppu, fpu, err := f.Context()
	if err != nil {
		f.Close()
		return nil, err
	}
	ix := &Index{
		opt:    opt,
		g:      g,
		packed: f,
		ctx:    &Context{nLabels: nl, card: card, ppu: ppu, fpu: fpu},
	}
	ix.stats.Entries = m.Entries
	ix.stats.EntriesPerLen = m.EntriesPerLen
	ix.stats.Sequences = f.NumSeqs()
	ix.stats.Bytes = f.MappedBytes()
	return ix, nil
}

// Close unmaps the index file. Zero-copy views handed out earlier (the
// Context tables; Lookup results are NOT among them — those are copied into
// caller-owned memory) must not be dereferenced afterwards, the same
// drain-then-close discipline the serving tier already applies before
// retiring a generation.
func (ix *Index) Close() error {
	if ix.packed == nil {
		return nil
	}
	err := ix.packed.Close()
	ix.packed = nil
	return err
}

// Stats returns build/size statistics.
func (ix *Index) Stats() BuildStats { return ix.stats }

// Context returns the node context information tables.
func (ix *Index) Context() *Context { return ix.ctx }

// Graph returns the entity graph the index was built over.
func (ix *Index) Graph() *entity.Graph { return ix.g }

// Beta returns the construction threshold β.
func (ix *Index) Beta() float64 { return ix.opt.Beta }

// Gamma returns the probability bucket resolution γ.
func (ix *Index) Gamma() float64 { return ix.opt.Gamma }

// MaxLen returns the maximum indexed path length L.
func (ix *Index) MaxLen() int { return ix.opt.MaxLen }

// opath is an oriented in-construction path with its label assignment.
type opath struct {
	n      uint8
	nodes  [maxNodes]entity.ID
	labels [maxNodes]prob.LabelID
	prle   float64
	prn    float64
}

func (p *opath) contains(v entity.ID) bool {
	for i := uint8(0); i < p.n; i++ {
		if p.nodes[i] == v {
			return true
		}
	}
	return false
}

// buildPaths enumerates oriented paths level by level with a barrier between
// levels, storing the canonical orientation of each (Section 5.1).
func (ix *Index) buildPaths(ctx context.Context) error {
	ix.stats.EntriesPerLen = make([]uint64, ix.opt.MaxLen+1)

	// Level 0: single nodes.
	var level []opath
	n := ix.g.NumNodes()
	for v := 0; v < n; v++ {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		exist := ix.g.Exist(entity.ID(v))
		for _, e := range ix.g.Node(entity.ID(v)).Label.Entries() {
			if e.P*exist+1e-12 < ix.opt.Beta {
				continue
			}
			p := opath{n: 1, prle: e.P, prn: exist}
			p.nodes[0] = entity.ID(v)
			p.labels[0] = e.Label
			level = append(level, p)
		}
	}
	if err := ix.storeLevel(level, 0); err != nil {
		return err
	}

	for l := 1; l <= ix.opt.MaxLen; l++ {
		next, err := ix.extendLevel(ctx, level)
		if err != nil {
			return err
		}
		if err := ix.storeLevel(next, l); err != nil {
			return err
		}
		level = next
		if len(level) == 0 {
			break
		}
	}
	return nil
}

// extendLevel extends every oriented path by one edge at its tail, in
// parallel chunks, applying the β cutoff and the reference-disjointness
// constraint.
func (ix *Index) extendLevel(ctx context.Context, level []opath) ([]opath, error) {
	workers := ix.opt.Workers
	if workers > len(level) {
		workers = len(level)
	}
	if workers == 0 {
		return nil, nil
	}
	results := make([][]opath, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	chunk := (len(level) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > len(level) {
			hi = len(level)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			var out []opath
			for i := lo; i < hi; i++ {
				if i%1024 == 0 {
					if err := ctxErr(ctx); err != nil {
						errs[w] = err
						return
					}
				}
				out = ix.extendOne(&level[i], out)
			}
			results[w] = out
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	total := 0
	for _, r := range results {
		total += len(r)
	}
	next := make([]opath, 0, total)
	for _, r := range results {
		next = append(next, r...)
	}
	return next, nil
}

func (ix *Index) extendOne(p *opath, out []opath) []opath {
	g := ix.g
	tail := p.nodes[p.n-1]
	tailLabel := p.labels[p.n-1]
	nodesSoFar := p.nodes[:p.n]
	for _, nb := range g.Neighbors(tail) {
		if p.contains(nb.To) {
			continue
		}
		conflict := false
		for _, u := range nodesSoFar {
			if u != tail && g.RefsOverlap(u, nb.To) {
				conflict = true
				break
			}
		}
		if conflict {
			continue
		}
		// Prn of the extended node set.
		var scratch [maxNodes]entity.ID
		ext := append(scratch[:0], nodesSoFar...)
		ext = append(ext, nb.To)
		prn := g.Prn(ext)
		if prn == 0 {
			continue
		}
		for _, le := range g.Node(nb.To).Label.Entries() {
			edgeP := nb.E.Prob(tailLabel, le.Label)
			prle := p.prle * edgeP * le.P
			if prle*prn+1e-12 < ix.opt.Beta {
				continue
			}
			np := *p
			np.nodes[np.n] = nb.To
			np.labels[np.n] = le.Label
			np.n++
			np.prle = prle
			np.prn = prn
			out = append(out, np)
		}
	}
	return out
}

// storeLevel writes the canonical orientation of every oriented path to the
// packedix writer, whose per-bucket counts are the histograms.
func (ix *Index) storeLevel(level []opath, l int) error {
	var lbl [maxNodes]uint16
	var nds [maxNodes]uint32
	for i := range level {
		p := &level[i]
		labels := p.labels[:p.n]
		nodes := p.nodes[:p.n]
		canon, reversed, palin := canonicalSeq(labels)
		if reversed {
			continue // stored by the reversed oriented path
		}
		if palin && p.n > 1 && nodes[0] > nodes[p.n-1] {
			continue // palindromic sequences store node-canonical orientation
		}
		for j, c := range canon {
			lbl[j] = uint16(c)
		}
		for j, n := range nodes {
			nds[j] = uint32(n)
		}
		b := bucketOf(p.prle*p.prn, ix.opt.Beta, ix.opt.Gamma)
		if err := ix.pw.Add(lbl[:p.n], int(b), nds[:p.n], p.prle, p.prn); err != nil {
			return err
		}
		ix.stats.Entries++
		ix.stats.EntriesPerLen[l]++
	}
	return nil
}

// findSeq locates the canonical form of X in the key table.
func (ix *Index) findSeq(X []prob.LabelID) (s packedix.Seq, reversed, palin, ok bool) {
	canon, reversed, palin := canonicalSeq(X)
	var lbl [maxNodes]uint16
	for i, l := range canon {
		lbl[i] = uint16(l)
	}
	s, ok = ix.packed.FindSeq(lbl[:len(canon)])
	return s, reversed, palin, ok
}

// Lookup returns PIndex(X, α): all paths whose label assignment is X with
// probability ≥ α. When α < β the index is insufficient and the paths are
// enumerated on demand from the graph (the paper's footnote 1).
//
// All result memory is two allocations: one entity.ID arena sized from the
// exact bucket counts and one PathMatch slice — no per-record node slices,
// no decoded cache.
func (ix *Index) Lookup(X []prob.LabelID, alpha float64) ([]PathMatch, error) {
	if len(X) == 0 || len(X) > maxNodes {
		return nil, fmt.Errorf("pathindex: label sequence length %d out of range", len(X))
	}
	if len(X)-1 > ix.opt.MaxLen {
		return nil, fmt.Errorf("pathindex: sequence of %d labels exceeds indexed length L=%d", len(X), ix.opt.MaxLen)
	}
	ix.probes.Add(1)
	if alpha < ix.opt.Beta {
		return ix.onDemand(X, alpha)
	}
	s, reversed, palin, ok := ix.findSeq(X)
	if !ok {
		return nil, nil
	}
	from := int(bucketOf(alpha, ix.opt.Beta, ix.opt.Gamma))
	nb := ix.packed.Meta().NBuckets
	total := 0
	for b := from; b < nb; b++ {
		total += int(s.Count(b))
	}
	if total == 0 {
		return nil, nil
	}
	mult := 1
	if palin && len(X) > 1 {
		mult = 2
	}
	// The α filter only removes records, so these capacities are upper
	// bounds: the arena never reallocates and sub-slices stay valid.
	arena := make([]entity.ID, 0, total*len(X)*mult)
	out := make([]PathMatch, 0, total*mult)
	obs := ix.obs.Load()
	var t0 time.Time
	if obs != nil {
		t0 = time.Now()
	}
	err := s.Decode(from, func(_ int, nodes []uint32, prle, prn float64) bool {
		if prle*prn+1e-12 < alpha {
			return true // bucket floor below α: filter exactly
		}
		base := len(arena)
		for _, n := range nodes {
			arena = append(arena, entity.ID(n))
		}
		ns := arena[base:len(arena):len(arena)]
		switch {
		case palin && len(nodes) > 1:
			// Both orientations match a palindromic sequence.
			rbase := len(arena)
			for i := len(nodes) - 1; i >= 0; i-- {
				arena = append(arena, entity.ID(nodes[i]))
			}
			rev := arena[rbase:len(arena):len(arena)]
			out = append(out, PathMatch{Nodes: ns, Prle: prle, Prn: prn},
				PathMatch{Nodes: rev, Prle: prle, Prn: prn})
		case reversed:
			for i, j := 0, len(ns)-1; i < j; i, j = i+1, j-1 {
				ns[i], ns[j] = ns[j], ns[i]
			}
			out = append(out, PathMatch{Nodes: ns, Prle: prle, Prn: prn})
		default:
			out = append(out, PathMatch{Nodes: ns, Prle: prle, Prn: prn})
		}
		return true
	})
	if obs != nil {
		(*obs)(float64(time.Since(t0).Nanoseconds()) / 1e3)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Cardinality estimates |PIndex(X, α)| from the per-bucket counts stored
// with X's key (palindromic sequences count both orientations). Used by
// query decomposition.
func (ix *Index) Cardinality(X []prob.LabelID, alpha float64) float64 {
	if len(X) > maxNodes {
		return 0
	}
	s, _, palin, ok := ix.findSeq(X)
	if !ok {
		return 0
	}
	nb := ix.packed.Meta().NBuckets
	cum := func(i int) uint32 {
		var sum uint32
		for j := i; j < nb; j++ {
			sum += s.Count(j)
		}
		return sum
	}
	est := estimateCurve(ix.opt.Beta, ix.opt.Gamma, nb, cum, alpha)
	if palin && len(X) > 1 {
		est *= 2
	}
	return est
}

// estimateCurve is the exponential curve fit of Section 5.2.1: with the
// exact counts N(αᵢ) and N(αᵢ₊₁) at the surrounding grid points,
// N(α) = N(αᵢ) · (N(αᵢ₊₁)/N(αᵢ))^((α−αᵢ)/γ). cum(i) must return the exact
// stored-entry count with probability ≥ β+iγ.
func estimateCurve(beta, gamma float64, nb int, cum func(i int) uint32, alpha float64) float64 {
	if alpha <= beta {
		return float64(cum(0))
	}
	if alpha >= 1 {
		return float64(cum(nb - 1))
	}
	i := int((alpha - beta) / gamma)
	if i >= nb-1 {
		return float64(cum(nb - 1))
	}
	ni := float64(cum(i))
	nj := float64(cum(i + 1))
	if ni == 0 {
		return 0
	}
	frac := (alpha - bucketFloor(uint16(i), beta, gamma)) / gamma
	if nj == 0 {
		// Exponential fit undefined; fall back to a linear ramp to zero,
		// which preserves monotonicity.
		return ni * (1 - frac)
	}
	return ni * math.Pow(nj/ni, frac)
}

func ctxErr(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// Sequences returns all canonical label sequences present in the index, for
// diagnostics and tests.
func (ix *Index) Sequences() [][]prob.LabelID {
	var out [][]prob.LabelID
	var buf []uint16
	for l := 0; l <= ix.opt.MaxLen; l++ {
		for i := 0; i < ix.packed.SeqsAtLen(l); i++ {
			buf = ix.packed.SeqAt(l, i).Labels(buf)
			labels := make([]prob.LabelID, len(buf))
			for j, v := range buf {
				labels[j] = prob.LabelID(v)
			}
			out = append(out, labels)
		}
	}
	sort.Slice(out, func(i, j int) bool { return compareLabels(out[i], out[j]) < 0 })
	return out
}
