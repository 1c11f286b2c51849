package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metric is one reported value with its unit; samples, when positive, is
// the sample count behind a percentile and is printed in the summary.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int
}

// report is what one run prints as its last line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricSet collects the metrics of one run by name.
type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// pct records a percentile together with the number of samples behind it.
func (m metricSet) pct(name string, xs []float64, p float64) {
	m[name] = metric{Value: percentile(xs, p), Unit: "ms", samples: len(xs)}
}

// pctIfSupported records the percentile only when at least ten samples lie
// beyond it; otherwise the value is 0 and the summary says why.
func (m metricSet) pctIfSupported(name string, xs []float64, p float64) {
	if float64(len(xs))*(1-p/100) < 10 {
		m[name] = metric{Value: 0, Unit: "ms", samples: len(xs)}
		return
	}
	m.pct(name, xs, p)
}

// windows is the number of equal slices of the measured phase that the
// end-to-end rates and percentiles are taken over.
const windows = 10

// windowedEndToEnd fills qps, goodput_qps, latency_p50_ms and latency_p95_ms from
// the samples of a measured phase lasting span. The phase is cut into equal
// slices by finish time, and each metric is the median of its per-slice
// values: the host's speed wanders by tens of percent over seconds, and a
// slow stretch covering less than half of a run then moves the medians
// only a little. A percentile is taken per slice only when every slice
// leaves at least ten samples beyond it, and otherwise over the whole
// phase. Goodput counts the right answers within limit.
func windowedEndToEnd(m metricSet, xs []sample, span, limit time.Duration) {
	slice := span / windows
	lats := make([][]float64, windows)
	good := make([]float64, windows)
	var all []float64
	for _, s := range xs {
		if !s.ok {
			continue
		}
		w := min(max(int(s.done/slice), 0), windows-1)
		lats[w] = append(lats[w], ms(s.lat))
		all = append(all, ms(s.lat))
		if s.lat <= limit {
			good[w]++
		}
	}
	qps := make([]float64, windows)
	for w := range lats {
		qps[w] = ratio(float64(len(lats[w])), slice.Seconds())
		good[w] = ratio(good[w], slice.Seconds())
	}
	m.set("qps", "1/s", median(qps))
	m.set("goodput_qps", "1/s", median(good))
	for _, pc := range []struct {
		name string
		p    float64
	}{{"latency_p50_ms", 50}, {"latency_p95_ms", 95}} {
		per := make([]float64, windows)
		for w, ls := range lats {
			if float64(len(ls))*(1-pc.p/100) < 10 {
				per = nil
				break
			}
			per[w] = percentile(ls, pc.p)
		}
		if per == nil {
			m.pct(pc.name, all, pc.p)
			continue
		}
		m[pc.name] = metric{Value: median(per), Unit: "ms", samples: len(all)}
	}
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between order statistics; xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio returns num/den, or 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// resetPeakRSS drops the garbage set-up left behind and resets VmHWM to
// the current resident set, so peak_rss_mb covers the measured phase rather
// than the index builds of set-up, whose peak varied by 25% between runs
// with the garbage collector's timing.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak rss: %w", err)
	}
	return nil
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("peak rss: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}

// runtimeSample is a snapshot of the Go runtime counters a run reports as
// deltas: bytes allocated, and GC versus total CPU time.
type runtimeSample struct {
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var r runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = s[2].Value.Float64()
	}
	return r
}

// setRuntime reports allocation per query and the GC share of CPU between
// two snapshots.
func (m metricSet) setRuntime(before, after runtimeSample, queries int) {
	m.set("runtime.alloc_mb_per_query", "MB", ratio(float64(after.allocBytes-before.allocBytes)/(1<<20), float64(queries)))
	m.set("runtime.gc_cpu_frac", "ratio", ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU))
}

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer's epoch; parent is -1 for a request's root span.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once, at exit.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records a finished span and returns its id.
func (t *tracer) add(req, parent int32, name string, start, end int64) int32 {
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	t.mu.Unlock()
	return id
}

// reserve allocates a span id before the span's children are recorded;
// finish fills it in.
func (t *tracer) reserve(req, parent int32, name string) int32 {
	return t.add(req, parent, name, t.now(), 0)
}

func (t *tracer) finish(id int32) {
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by the union of its children.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(spans, children[s.ID], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of the given spans' intervals,
// clipped to [lo, hi].
func covered(spans []span, ids []int32, lo, hi int64) int64 {
	if len(ids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(ids))
	for _, id := range ids {
		a, b := max(spans[id].Start, lo), min(spans[id].End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	started := false
	for _, x := range iv {
		if !started || x[0] > curB {
			if started {
				total += curB - curA
			}
			curA, curB, started = x[0], x[1], true
			continue
		}
		curB = max(curB, x[1])
	}
	if started {
		total += curB - curA
	}
	return total
}

// layerSummary aggregates spans by name: total self time, and for roots
// the wall time and the part of it the children cover.
type layerSummary struct {
	self      map[string]int64
	rootWall  int64
	rootCover int64
	rootCount int
}

func summarize(spans []span) layerSummary {
	self := selfTimes(spans)
	ls := layerSummary{self: map[string]int64{}}
	for i, s := range spans {
		ls.self[s.Name] += self[i]
		if s.Parent < 0 {
			ls.rootWall += s.End - s.Start
			ls.rootCover += (s.End - s.Start) - self[i]
			ls.rootCount++
		}
	}
	return ls
}

// writeSpans writes the spans as NDJSON.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// printSummary writes one human-readable line per metric, with sample
// counts for percentiles, in name order.
func printSummary(w io.Writer, workload string, rep report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# workload %s: attempted %d, failed %d, correct %v, error_rate %.6g\n",
		workload, rep.Attempted, rep.Failed, rep.Correct, ratio(float64(rep.Failed), float64(rep.Attempted)))
	for _, n := range names {
		m := rep.Metrics[n]
		if m.samples > 0 {
			fmt.Fprintf(w, "# %-32s %14.6g %-6s (n=%d)\n", n, m.Value, m.Unit, m.samples)
		} else {
			fmt.Fprintf(w, "# %-32s %14.6g %s\n", n, m.Value, m.Unit)
		}
	}
}

// machineFacts describes where a baseline was measured.
func machineFacts() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s %s/%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
