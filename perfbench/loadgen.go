package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/gen"
	"repro/internal/live"
	"repro/internal/refgraph"
	"repro/internal/server"
)

// The serve-ingest load generator runs in a child process of its own, so
// the operating system, not the Go scheduler of a busy server, decides
// when it wakes: in-process, a compaction saturating both cores delayed
// open-loop arrivals by 66 ms at p99. The parent passes clientEnv; the
// child regenerates the dataset and the schedule, draws its reads from the
// seed and prints a clientReport.
const clientEnv = "PERFBENCH_CLIENT"

// clientArgs is what the parent hands the generator process.
type clientArgs struct {
	Addr  string  `json:"addr"`
	Seed  int64   `json:"seed"`
	Secs  float64 `json:"secs"` // schedule length, warm-up included
	Smoke bool    `json:"smoke"`
}

// outcome is one request as the generator saw it. Times are nanoseconds
// since the run's start. Sched is an /ingest batch's scheduled time, and
// Lateness how late the writer woke for it; a closed-loop /match is due the
// moment its client sends it.
type outcome struct {
	Ingest   bool   `json:"ingest,omitempty"`
	Sched    int64  `json:"sched"`
	Sent     int64  `json:"sent"`
	Done     int64  `json:"done"`
	Lateness int64  `json:"late"`
	Err      string `json:"err,omitempty"`
	Wrong    string `json:"wrong,omitempty"`
	Cached   bool   `json:"cached,omitempty"`
	Dirty    int    `json:"dirty,omitempty"`
	// Server-reported stats of a computed (uncached) /match, in µs and rows.
	EngineUs     float64 `json:"engine_us,omitempty"`
	PlanUs       float64 `json:"plan_us,omitempty"`
	CandUs       float64 `json:"cand_us,omitempty"`
	CandRows     float64 `json:"cand_rows,omitempty"`
	CandPruned   float64 `json:"cand_pruned,omitempty"`
	BuildUs      float64 `json:"build_us,omitempty"`
	Links        float64 `json:"links,omitempty"`
	ReduceUs     float64 `json:"reduce_us,omitempty"`
	ReducePruned float64 `json:"reduce_pruned,omitempty"`
	JoinUs       float64 `json:"join_us,omitempty"`
	Matched      float64 `json:"matched,omitempty"`
}

// clientReport is the generator's output. Scheduled and Sent count the
// writer's /ingest batches.
type clientReport struct {
	Scheduled int       `json:"scheduled"`
	Sent      int       `json:"sent"`
	Outcomes  []outcome `json:"outcomes"`
}

// event is one scheduled /ingest batch (body), due at offset at from the
// start.
type event struct {
	at   time.Duration
	body []byte
}

func serveConfigFor(smoke bool) serveConfig {
	if smoke {
		return smokeServe
	}
	return fullServe
}

// serveInputs regenerates the dataset: the PGD and the request pool. The
// server process and the generator process both call it.
func serveInputs(cfg serveConfig) (*refgraph.PGD, []poolEntry, error) {
	d, err := gen.Synthetic(gen.SynthOptions{
		Refs: cfg.Graph.Refs, UncertainFrac: cfg.Graph.Uncertain, Groups: cfg.Graph.Groups, Seed: cfg.Graph.DatasetSeed,
	})
	if err != nil {
		return nil, nil, err
	}
	pool, err := makePool(d.Alphabet(), libConfig{Graph: cfg.Graph, PoolSize: cfg.PoolSize, PoolAlphas: cfg.PoolAlphas})
	if err != nil {
		return nil, nil, err
	}
	return d, pool, nil
}

// schedule builds the writer's schedule: /ingest batches at a fixed rate,
// half an interval in, so every seed ingests and compacts at the same
// moments. The mutation stream is part of the dataset: which references a
// batch touches decides how much of the graph turns dirty, and with it the
// cost of every later query until the next compaction.
func schedule(cfg serveConfig, pgd *refgraph.PGD, dur time.Duration) ([]event, error) {
	mrng := rand.New(rand.NewSource(seedFor(cfg.Graph.DatasetSeed, 6)))
	evs := make([]event, int(cfg.IngestRate*dur.Seconds()+0.5))
	for i := range evs {
		body, err := mutationBatch(mrng, pgd, cfg.BatchSize)
		if err != nil {
			return nil, err
		}
		evs[i] = event{at: time.Duration((float64(i) + 0.5) / cfg.IngestRate * float64(time.Second)), body: body}
	}
	return evs, nil
}

// readerDraws returns one seeded Zipf source over the pool per reader.
func readerDraws(seed int64, cfg serveConfig, poolLen, readers int) []func() int {
	out := make([]func() int, readers)
	for r := range out {
		z := rand.NewZipf(rand.New(rand.NewSource(seedFor(seed, int64(500+r)))), cfg.ZipfS, cfg.ZipfV, uint64(poolLen-1))
		out[r] = func() int { return int(z.Uint64()) }
	}
	return out
}

// readers is the number of closed-loop /match clients: one connection of
// the nproc is the writer's.
func readers() int { return max(1, runtime.NumCPU()-1) }

// mutationBatch draws an NDJSON batch alternating add-edge between random
// references and set-linkage evidence on an existing reference set.
func mutationBatch(rng *rand.Rand, pgd *refgraph.PGD, n int) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := 0; i < n; i++ {
		var m live.Mutation
		if i%2 == 0 || pgd.NumSets() == 0 {
			a := refgraph.RefID(rng.Intn(pgd.NumRefs()))
			b := refgraph.RefID(rng.Intn(pgd.NumRefs() - 1))
			if b >= a {
				b++
			}
			m = live.Mutation{Op: live.OpAddEdge, A: a, B: b, P: 0.3 + 0.7*rng.Float64()}
		} else {
			set := pgd.Set(refgraph.SetID(rng.Intn(pgd.NumSets())))
			m = live.Mutation{Op: live.OpSetLinkage, Members: set.Members, P: 0.3 + 0.65*rng.Float64()}
		}
		if err := enc.Encode(m); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// newClient returns an HTTP client holding at most nproc connections.
func newClient() (*http.Client, func()) {
	nproc := runtime.NumCPU()
	tp := &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}
	return &http.Client{Transport: tp}, tp.CloseIdleConnections
}

// runClient is the generator process: it replays the seeded schedule
// against the server at args.Addr and prints a clientReport.
func runClient(raw string) int {
	var args clientArgs
	if err := json.Unmarshal([]byte(raw), &args); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench client:", err)
		return 2
	}
	cfg := serveConfigFor(args.Smoke)
	pgd, pool, err := serveInputs(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench client:", err)
		return 1
	}
	dur := time.Duration(args.Secs * float64(time.Second))
	evs, err := schedule(cfg, pgd, dur)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench client:", err)
		return 1
	}
	client, closeIdle := newClient()
	defer closeIdle()
	draws := readerDraws(args.Seed, cfg, len(pool), readers())
	rep := dispatch(client, "http://"+args.Addr, evs, draws, pool, cfg.Limit, dur)
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench client:", err)
		return 1
	}
	return 0
}

// dispatch runs the generator for dur. Each draw is one closed-loop
// /match client, sending the pool entry it draws as soon as its previous
// answer is in. The writer is open-loop: one goroutine sleeps until each
// /ingest batch's scheduled time and hands it to a fresh goroutine, so a
// slow ack never delays later sends (no time.Ticker, which drops ticks
// when the receiver falls behind). Batches not sent by the end count as
// unsent. It returns once every request has finished.
//
// The writer keeps at most one /ingest in flight; later batches wait, and
// the wait counts in their latency from schedule. Unbounded, two batches
// queued on the database's writer lock held both connections of a 2-core
// run and stalled every read behind them for up to 1.5 s.
func dispatch(client *http.Client, base string, evs []event, draws []func() int, pool []poolEntry, limit int, dur time.Duration) clientReport {
	start := time.Now().Add(20 * time.Millisecond)
	end := start.Add(dur)
	since := func(t time.Time) int64 { return int64(t.Sub(start)) }
	var wg sync.WaitGroup
	reads := make([][]outcome, len(draws))
	for r, draw := range draws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Until(start))
			for now := time.Now(); now.Before(end); now = time.Now() {
				o := outcome{Sched: since(now)}
				e := &pool[draw()]
				// A MatchRequest of a string and finite numbers always marshals.
				req, _ := json.Marshal(server.MatchRequest{Query: e.text, Alpha: e.alpha, Limit: limit})
				o.call(client, base+"/match", req, since, func(body []byte) error {
					var r server.MatchResponse
					if err := json.Unmarshal(body, &r); err != nil {
						o.Wrong = fmt.Sprintf("unparsable /match body: %v", err)
						return nil
					}
					if err := checkServed(&r, limit, e.alpha); err != nil {
						o.Wrong = err.Error()
					}
					o.Cached = r.Cached
					if !r.Cached && r.Stats != nil {
						o.setStats(r.Stats)
					}
					return nil
				})
				reads[r] = append(reads[r], o)
			}
		}()
	}
	outs := make([]outcome, len(evs))
	writer := make(chan struct{}, 1)
	sent := 0
	for i := range evs {
		ev := &evs[i]
		due := start.Add(ev.at)
		time.Sleep(time.Until(due))
		now := time.Now()
		if now.After(end) {
			break
		}
		sent++
		outs[i] = outcome{Ingest: true, Sched: int64(ev.at), Lateness: int64(now.Sub(due))}
		wg.Add(1)
		go func(o *outcome) {
			defer wg.Done()
			writer <- struct{}{}
			defer func() { <-writer }()
			o.call(client, base+"/ingest", ev.body, since, func(body []byte) error {
				var r live.ApplyResult
				if err := json.Unmarshal(body, &r); err != nil {
					return err
				}
				o.Dirty = r.DirtyEntities
				return nil
			})
		}(&outs[i])
	}
	wg.Wait()
	outs = outs[:sent]
	for _, rs := range reads {
		outs = append(outs, rs...)
	}
	return clientReport{Scheduled: len(evs), Sent: sent, Outcomes: outs}
}

// setStats keeps the server-reported numbers the per-layer metrics use.
func (o *outcome) setStats(st *server.MatchStats) {
	o.EngineUs = st.TotalMicros
	o.PlanUs = st.PlanMicros
	for _, sg := range st.Stages {
		switch sg.Name {
		case "candidates":
			o.CandUs, o.CandRows, o.CandPruned = sg.Micros, sg.ObsRows, float64(sg.Pruned)
		case "build":
			o.BuildUs, o.Links = sg.Micros, sg.ObsRows
		case "reduce":
			o.ReduceUs, o.ReducePruned = sg.Micros, float64(sg.Pruned)
		case "join":
			o.JoinUs, o.Matched = sg.Micros, sg.ObsRows
		}
	}
}

// call posts one request and hands a 200 body to parse.
func (o *outcome) call(client *http.Client, url string, body []byte, since func(time.Time) int64, parse func([]byte) error) {
	o.Sent = since(time.Now())
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		o.Done = since(time.Now())
		o.Err = err.Error()
		return
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.Done = since(time.Now())
	switch {
	case err != nil:
		o.Err = err.Error()
	case resp.StatusCode != http.StatusOK:
		o.Err = fmt.Sprintf("%s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(b))
	default:
		if err := parse(b); err != nil {
			o.Err = err.Error()
		}
	}
}
