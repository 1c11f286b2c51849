package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/join"
	"repro/internal/server"
)

// TestMain lets serve-ingest's generator child process re-enter this test
// binary, as it re-enters the perfbench binary in a real run.
func TestMain(m *testing.M) {
	if raw, ok := os.LookupEnv(clientEnv); ok {
		os.Exit(runClient(raw))
	}
	os.Exit(m.Run())
}

func smokeSetup(t *testing.T) *libSetup {
	t.Helper()
	s, err := setupLibrary(context.Background(), smokeLib, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func cloneMatches(ms []join.Match) []join.Match {
	out := make([]join.Match, len(ms))
	for i, m := range ms {
		out[i] = join.Match{Mapping: append(m.Mapping[:0:0], m.Mapping...), Prle: m.Prle, Prn: m.Prn}
	}
	return out
}

func flipBit(f float64, bit uint) float64 { return math.Float64frombits(math.Float64bits(f) ^ 1<<bit) }

// corruptions returns the three corrupted copies of a non-empty answer the
// checkers must reject: a flipped Prn bit, a dropped match, a wrong mapping.
func corruptions(ms []join.Match, bit uint, other func(join.Match) join.Match) map[string][]join.Match {
	flipped := cloneMatches(ms)
	flipped[0].Prn = flipBit(flipped[0].Prn, bit)
	dropped := cloneMatches(ms)[1:]
	wrong := cloneMatches(ms)
	wrong[0] = other(wrong[0])
	return map[string][]join.Match{"flipped Prn bit": flipped, "dropped match": dropped, "wrong mapping": wrong}
}

func TestCheckersRejectCorruptAnswers(t *testing.T) {
	ctx := context.Background()
	s := smokeSetup(t)
	qs, err := selectCollect(ctx, s.ix, smokeLib)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Match(ctx, s.ix, qs[0].q, core.Options{Alpha: smokeLib.CollectAlpha})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCollect(res.Matches, qs[0].ref); err != nil {
		t.Fatalf("collect: correct answer rejected: %v", err)
	}
	// Any other entity in the mapping: the digest covers every id.
	shift := func(m join.Match) join.Match {
		m.Mapping[0] = (m.Mapping[0] + 1) % entity.ID(s.g.NumNodes())
		return m
	}
	for name, bad := range corruptions(res.Matches, 0, shift) {
		if checkCollect(bad, qs[0].ref) == nil {
			t.Errorf("collect checker accepted a %s", name)
		}
	}

	// First match: the checker recomputes from the graph, so the flipped
	// bit must be one the 1e-12 tolerance cannot absorb.
	pool, err := makePool(s.g.Alphabet(), smokeLib)
	if err != nil {
		t.Fatal(err)
	}
	if err := referenceHas(ctx, s.ix, pool); err != nil {
		t.Fatal(err)
	}
	var e *poolEntry
	for i := range pool {
		if pool[i].has {
			e = &pool[i]
			break
		}
	}
	if e == nil {
		t.Fatal("no pool entry has a match")
	}
	first, err := core.Match(ctx, s.ix, e.q, firstMatchOptions(e.alpha, nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFirstMatch(s.g, e.q, e.alpha, first.Matches, e.has); err != nil {
		t.Fatalf("first match: correct answer rejected: %v", err)
	}
	swap := func(m join.Match) join.Match {
		m.Mapping[0], m.Mapping[1] = m.Mapping[1], m.Mapping[0]
		if m.Mapping[0] == m.Mapping[1] {
			m.Mapping[0] = (m.Mapping[0] + 1) % entity.ID(s.g.NumNodes())
		}
		return m
	}
	for name, bad := range corruptions(first.Matches, 45, swap) {
		if checkFirstMatch(s.g, e.q, e.alpha, bad, e.has) == nil {
			t.Errorf("first-match checker accepted a %s", name)
		}
	}

	// Served answers: under load every body must be self-consistent; once
	// quiesced it must equal core.Match exactly.
	entries := func(ms []join.Match) []server.MatchEntry {
		out := make([]server.MatchEntry, len(ms))
		for i, m := range ms {
			ids := make([]uint32, len(m.Mapping))
			for k, v := range m.Mapping {
				ids[k] = uint32(v)
			}
			out[i] = server.MatchEntry{Mapping: ids, Pr: m.Pr(), Prle: m.Prle, Prn: m.Prn}
		}
		return out
	}
	good := entries(res.Matches)
	if err := checkServed(&server.MatchResponse{NumMatches: len(good), Matches: good}, 0, smokeLib.CollectAlpha); err != nil {
		t.Fatalf("served: correct answer rejected: %v", err)
	}
	if err := checkSameMatches(good, res.Matches); err != nil {
		t.Fatalf("quiesced: correct answer rejected: %v", err)
	}
	dup := func(m join.Match) join.Match {
		m.Mapping[1] = m.Mapping[0]
		return m
	}
	for name, bad := range corruptions(res.Matches, 0, dup) {
		be := entries(bad)
		if name == "flipped Prn bit" {
			be[0].Pr = good[0].Pr // the server computes pr from the true Prle and Prn
		}
		if checkServed(&server.MatchResponse{NumMatches: len(good), Matches: be}, 0, smokeLib.CollectAlpha) == nil {
			t.Errorf("served checker accepted a %s", name)
		}
		if checkSameMatches(be, res.Matches) == nil {
			t.Errorf("quiesced checker accepted a %s", name)
		}
	}
}

func TestTracedCompositionEqualsMatch(t *testing.T) {
	ctx := context.Background()
	s := smokeSetup(t)
	qs, err := selectCollect(ctx, s.ix, smokeLib)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := makePool(s.g.Alphabet(), smokeLib)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	var acc layerCounts
	check := func(name string, req libRequest) {
		t.Helper()
		want, err := core.Match(ctx, s.ix, req.q, req.opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := composed(ctx, s.ix, tr, int32(acc.queries), req.q, req.opt, &acc)
		if err != nil {
			t.Fatal(err)
		}
		if digest(got) != digest(want.Matches) {
			t.Errorf("%s: composition returned %d matches, core.Match %d (or different bits)", name, len(got), len(want.Matches))
		}
	}
	for _, par := range []int{0, 1, 2} {
		for _, cq := range qs {
			check("collect", libRequest{q: cq.q, opt: core.Options{Alpha: smokeLib.CollectAlpha, Parallelism: par}})
		}
	}
	cache := candidates.NewCache(0)
	for round := 0; round < 2; round++ { // the second round hits the cache
		for _, e := range pool {
			check("first-match", libRequest{q: e.q, opt: firstMatchOptions(e.alpha, cache)})
		}
	}
	ls := summarize(tr.spans)
	if ls.rootCount != int(acc.queries) {
		t.Fatalf("%d root spans for %d queries", ls.rootCount, acc.queries)
	}
	if cov := ratio(float64(ls.rootCover), float64(ls.rootWall)); cov < 0.9 || cov > 1 {
		t.Errorf("stage spans cover %.3f of the root spans", cov)
	}
	if acc.cacheHits == 0 {
		t.Error("repeated first-match queries never hit the candidate cache")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 60}, // overlaps span 1
		{ID: 3, Parent: 1, Start: 20, End: 25},
	}
	got := selfTimes(spans)
	want := []int64{50, 25, 30, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self time %d, want %d", i, got[i], want[i])
		}
	}
}

// TestLateWriterInvalidatesRun feeds the generator an /ingest batch it can
// only send half a second late, beside closed-loop reads and a batch sent
// on time: the run must be flagged invalid. Without the late batch it is
// valid.
func TestLateWriterInvalidatesRun(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/match" {
			w.Write([]byte(`{"num_matches":0,"matches":[]}`))
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()
	pool := []poolEntry{{text: "node A l0", alpha: 0.5}}
	draws := []func() int{func() int { return 0 }}
	onTime := event{at: 0, body: []byte("{}\n")}
	late := event{at: -500 * time.Millisecond, body: []byte("{}\n")}
	for _, tc := range []struct {
		name string
		evs  []event
		want error
	}{
		{"on time", []event{onTime}, nil},
		{"late batch", []event{late, onTime}, errInvalidRun},
	} {
		cr := dispatch(srv.Client(), srv.URL, tc.evs, draws, pool, 50, 100*time.Millisecond)
		reads := 0
		for _, o := range cr.Outcomes {
			if o.Err != "" || o.Wrong != "" {
				t.Fatalf("%s: request failed: %s%s", tc.name, o.Err, o.Wrong)
			}
			if !o.Ingest {
				reads++
			}
		}
		if reads == 0 || cr.Sent != len(tc.evs) {
			t.Fatalf("%s: %d reads, %d of %d batches sent", tc.name, reads, cr.Sent, len(tc.evs))
		}
		if _, _, err := checkGenerator(cr, 100*time.Millisecond); !errors.Is(err, tc.want) {
			t.Errorf("%s: checkGenerator = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestSmokeEveryMetric runs every workload at toy size in both modes and
// checks the printed metric set against BENCHMARK.json, which must name
// only workloads the driver has.
func TestSmokeEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	declared := func(list []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range list {
			out[m.Name] = m.Unit
		}
		return out
	}
	if msg := checkNames(toMetrics(endToEnd), declared(bench.EndToEnd)); msg != "" {
		t.Errorf("end_to_end differs from BENCHMARK.json:%s", msg)
	}
	if msg := checkNames(toMetrics(layerUnits), declared(bench.PerLayer)); msg != "" {
		t.Errorf("per_layer differs from BENCHMARK.json:%s", msg)
	}
	for _, w := range bench.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	for _, name := range names() {
		runner := workloads[name]
		for _, traced := range []bool{false, true} {
			p := runParams{seed: 3, dur: 500 * time.Millisecond, traced: traced, dir: t.TempDir(), smoke: true}
			rep, err := runner(context.Background(), p)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			want := endToEnd
			if traced {
				want = layerUnits
			}
			if msg := checkNames(rep.Metrics, want); msg != "" {
				t.Errorf("%s (traced %v):%s", name, traced, msg)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s (traced %v): correct %v, %d of %d failed", name, traced, rep.Correct, rep.Failed, rep.Attempted)
			}
			var sb strings.Builder
			printSummary(&sb, name, rep)
			for n, m := range rep.Metrics {
				if !strings.Contains(sb.String(), n) || !strings.Contains(sb.String(), m.Unit) {
					t.Errorf("%s: summary lacks %s [%s]", name, n, m.Unit)
				}
			}
		}
	}
}

func toMetrics(units map[string]string) map[string]metric {
	out := map[string]metric{}
	for n, u := range units {
		out[n] = metric{Unit: u}
	}
	return out
}
