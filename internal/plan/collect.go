package plan

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/join"
)

// joinCollect runs the OrderEmit join into one collector per worker: no
// channel, no cross-worker synchronization per match. With Limit > 0 the
// workers claim result slots from one shared counter, so exactly Limit
// matches are kept and the worker that claims the last slot stops the
// enumeration. At width 1 the join is the sequential enumeration.
func (e *Executor) joinCollect(ctx context.Context, pl *Plan, opt Exec, r *run) ([]matchCollector, error) {
	cols := make([]matchCollector, r.par)
	if opt.Limit > 0 && opt.Limit < firstChunk {
		// No worker can claim more than Limit slots, so a small Limit (a
		// first-match request) needs no full first chunk.
		for i := range cols {
			cols[i].cur = make([]join.Match, 0, opt.Limit)
		}
	}
	var claimed atomic.Int64
	limit := int64(opt.Limit)
	err := join.FindMatchesParallel(ctx, r.g, pl.Query, pl.Dec, r.kg, r.order, pl.Alpha, r.par, func(w int, m join.Match) bool {
		if limit == 0 {
			cols[w].add(m)
			return true
		}
		n := claimed.Add(1)
		if n > limit {
			return false
		}
		cols[w].add(m)
		return n < limit
	})
	return cols, err
}

// matchCollector accumulates one worker's matches in exponentially growing
// chunks spliced once at the end: append-growing one big slice reallocates
// several times the final footprint at typical result sizes (the runtime
// grows large slices by ~1.25×, so the abandoned backing arrays sum to ~5×
// the result). The padding keeps the collectors of neighbouring workers,
// which sit side by side in one slice, off each other's cache lines.
type matchCollector struct {
	chunks [][]join.Match
	cur    []join.Match
	total  int
	_      [64]byte
}

// firstChunk is the capacity of a collector's first chunk.
const firstChunk = 512

func (c *matchCollector) add(m join.Match) {
	if len(c.cur) == cap(c.cur) {
		n := 2 * cap(c.cur)
		if n == 0 {
			n = firstChunk
		}
		if len(c.cur) > 0 {
			c.chunks = append(c.chunks, c.cur)
		}
		c.cur = make([]join.Match, 0, n)
	}
	c.cur = append(c.cur, m)
	c.total++
}

// sortedRun splices the chunks into one slice, releases them, and sorts the
// run by CompareMatches.
func (c *matchCollector) sortedRun() []join.Match {
	run := c.cur
	if len(c.chunks) > 0 {
		run = make([]join.Match, 0, c.total)
		for _, chunk := range c.chunks {
			run = append(run, chunk...)
		}
		run = append(run, c.cur...)
	}
	c.chunks, c.cur = nil, nil
	slices.SortFunc(run, CompareMatches)
	return run
}

// sortMerge turns the per-worker collectors into one result sorted by
// CompareMatches: every non-empty run is spliced and sorted on its own
// goroutine, then one k-way merge writes the result. At most two
// result-sized copies are live — the runs and the merged output. It returns
// nil for an empty result, and the number of runs sorted concurrently.
func sortMerge(cols []matchCollector) ([]join.Match, int) {
	var live []*matchCollector
	total := 0
	for i := range cols {
		if cols[i].total > 0 {
			live = append(live, &cols[i])
			total += cols[i].total
		}
	}
	switch len(live) {
	case 0:
		return nil, 0
	case 1:
		return live[0].sortedRun(), 1
	}
	runs := make([][]join.Match, len(live))
	var wg sync.WaitGroup
	for i, c := range live {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[i] = c.sortedRun()
		}()
	}
	wg.Wait()
	return mergeRuns(runs, total), len(runs)
}

// mergeRuns k-way merges sorted runs through a binary min-heap of run
// indices keyed by each run's head. Equal heads resolve to the lower run
// index, so the merge is deterministic even for duplicate keys.
func mergeRuns(runs [][]join.Match, total int) []join.Match {
	out := make([]join.Match, 0, total)
	less := func(i, j int) bool {
		if c := CompareMatches(runs[i][0], runs[j][0]); c != 0 {
			return c < 0
		}
		return i < j
	}
	h := make([]int, len(runs))
	for i := range h {
		h[i] = i
	}
	down := func(i int) {
		for {
			l := 2*i + 1
			if l >= len(h) {
				return
			}
			if r := l + 1; r < len(h) && less(h[r], h[l]) {
				l = r
			}
			if !less(h[l], h[i]) {
				return
			}
			h[i], h[l] = h[l], h[i]
			i = l
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(h) > 0 {
		top := h[0]
		out = append(out, runs[top][0])
		runs[top] = runs[top][1:]
		if len(runs[top]) == 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
	return out
}
