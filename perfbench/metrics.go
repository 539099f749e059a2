package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit. The two lists below
// are the benchmark's contract with BENCHMARK.json (a test keeps them in
// step): an untraced run prints every endToEnd metric, a traced run
// every perLayer metric, on every workload.
type metricDef struct {
	name, unit string
}

// endToEnd are the figures a user of the classifier sees. A batch is one
// 64-frame LookupBytesBatch burst; an update step is an insert of a new
// pool rule plus a delete of the oldest, on the workload's engine in
// this process. Service times are CPU times (see cpuclock.go). Batch
// times are unimodal and reported as medians; update steps mix cheap
// steps with ones that grow or shrink the field tables, and a median of
// two modes jumps between them from run to run, so they are reported as
// a trimmed mean. mpps is counted: frames completed over the wall time
// they took. There is no update rate: counted the same way, it spread
// 0.34 of its median between runs on the reference VM.
var endToEnd = []metricDef{
	{"mpps", "Mpps"},       // frames classified per second by both workers over the window, millions
	{"burst_p50_us", "us"}, // median service time of one batch
	{"update_us", "us"},    // trimmed mean service time of one update step
	{"swap_s", "s"},        // CPU time of one full-ruleset Replace (SWAP)
	{"setup_s", "s"},       // CPU time of an engine build
	{"mem_mib", "MiB"},     // peak RSS of the process holding the engine
}

// perLayer are the traced run's figures, grouped by the package whose
// public functions they time or whose exported counters they read.
var perLayer = []metricDef{
	{"packet.decode_ns", "ns"},
	{"fwstate.probe_ns", "ns"},
	{"fwstate.fill_ns", "ns"},
	{"fwstate.allocs_per_fill", "count"},
	{"fwstate.hit_frac", "frac"},
	{"fwstate.evictions", "count"},
	{"flowcache.probe_ns", "ns"},
	{"flowcache.fill_ns", "ns"},
	{"flowcache.allocs_per_fill", "count"},
	{"flowcache.hit_frac", "frac"},
	{"flowcache.evictions", "count"},
	{"core.batch_ns_per_header", "ns"},
	{"core.probes_per_lookup", "count"},
	{"core.first_hit_probes_per_lookup", "count"},
	{"core.max_list_len", "count"},
	{"core.hw_overflows", "count"},
	{"core.model_cycles_per_lookup", "cycles"},
	{"lpm.src_ns", "ns"},
	{"lpm.dst_ns", "ns"},
	{"rangematch.sport_ns", "ns"},
	{"rangematch.dport_ns", "ns"},
	{"exactmatch.proto_ns", "ns"},
	{"lpm.split6_src_ns", "ns"},
	{"lpm.split6_dst_ns", "ns"},
	{"core.combine_ns", "ns"},
	{"core.build_s", "s"},
	{"core.insert_us_p50", "us"},
	{"core.delete_us_p50", "us"},
	{"core.replace_s", "s"},
	{"ctl.server_lookup_p50_us", "us"},
	{"ctl.server_update_p50_us", "us"},
	{"ctl.wire_p50_us", "us"},
	{"runtime.allocs_per_frame", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_frac", "frac"},
	{"trace.unattributed_frac", "frac"},
}

// validName reports whether s is a legal metric or workload name: it
// starts with a letter or digit and is at most 64 characters from
// [A-Za-z0-9_.-].
func validName(s string) bool {
	if s == "" || len(s) > 64 || !isAlnum(s[0]) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; !isAlnum(c) && c != '_' && c != '.' && c != '-' {
			return false
		}
	}
	return true
}

func isAlnum(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
}

// standardPercentiles are the candidate tail percentiles, in tenths of
// a percent, highest first.
var standardPercentiles = []int{999, 990, 900, 500}

// rank is the 1-based nearest-rank index of the percentile pt (tenths
// of a percent) among n samples.
func rank(pt, n int) int {
	k := (pt*n + 999) / 1000
	if k < 1 {
		k = 1
	}
	return k
}

// tailPercentile returns the highest standard percentile (in tenths of
// a percent) that has at least ten samples beyond it, or 0 when even
// the median has fewer.
func tailPercentile(n int) int {
	for _, pt := range standardPercentiles {
		if n-rank(pt, n) >= 10 {
			return pt
		}
	}
	return 0
}

// dist summarizes a latency sample: the median, the p99 and the highest
// percentile the sample supports, with the sample count.
type dist struct {
	n        int
	p50, p99 float64
	tail     float64
	tailPt   int // tenths of a percent; 0 when unsupported
}

// summarize sorts a copy of the samples and reads the percentiles by
// the nearest-rank rule.
func summarize(samples []float64) dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	d := dist{n: len(s), tailPt: tailPercentile(len(s))}
	if len(s) == 0 {
		return d
	}
	at := func(pt int) float64 { return s[rank(pt, len(s))-1] }
	d.p50, d.p99 = at(500), at(990)
	if d.tailPt > 0 {
		d.tail = at(d.tailPt)
	}
	return d
}

func (d dist) String() string {
	if d.tailPt == 0 {
		return fmt.Sprintf("n=%d p50=%.2f (too few samples for a tail percentile)", d.n, d.p50)
	}
	return fmt.Sprintf("n=%d p50=%.2f p99=%.2f p%g=%.2f (highest percentile with >=10 samples beyond it: p%g)",
		d.n, d.p50, d.p99, float64(d.tailPt)/10, d.tail, float64(d.tailPt)/10)
}

// trimCut is the share of samples trimmedMean drops at each end.
const trimCut = 0.05

// trimmedMean is the mean of the samples left after dropping the lowest
// and highest trimCut of them.
func trimmedMean(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	k := int(float64(len(s)) * trimCut)
	s = s[k : len(s)-k]
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// median returns the middle value (mean of the two middle values for
// an even count).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// report collects one run's metrics, operation counts, the problems
// that make it incorrect, and the human-readable lines printed ahead of
// the result.
type report struct {
	values    map[string]float64
	attempted int
	failed    int
	problems  []string
	lines     []string
}

func newReport() *report { return &report{values: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// problem records a failure that is not a wrong verdict: a snapshot
// mismatch, a failed check, a missing sample.
func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// count adds checked operations and the wrong ones among them.
func (r *report) count(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

// latency records the median of a latency sample as the named metric,
// or its trimmed mean when trimmed is set, and notes the sample's
// summary, tail included.
func (r *report) latency(what, name string, samples []float64, trimmed bool) {
	d := summarize(samples)
	r.note("%s (us): %v", what, d)
	if d.n == 0 {
		r.problem("%s: no samples", what)
	}
	if trimmed {
		v := trimmedMean(samples)
		r.note("%s (us): trimmed mean %.2f", what, v)
		r.set(name, v)
		return
	}
	r.set(name, d.p50)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// result renders the run as the final JSON line, carrying exactly the
// metrics of defs. A missing or non-finite value is a problem.
func (r *report) result(defs []metricDef) (string, bool) {
	out := jsonResult{Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]jsonMetric, len(defs))}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !validName(d.name) {
			r.problem("metric name %q is not valid", d.name)
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.problem("metric %s has no finite value (%v)", d.name, v)
			v = 0
		}
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	if out.Attempted < 1 {
		r.problem("no operation was attempted")
		out.Attempted = 1
	}
	out.Correct = r.failed == 0 && len(r.problems) == 0
	// Marshal cannot fail: every value above is finite.
	b, _ := json.Marshal(out)
	return string(b), out.Correct
}

// summaryLines returns the notes and problems, one per line.
func (r *report) summaryLines() string {
	var b strings.Builder
	for _, l := range r.lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	for _, p := range r.problems {
		b.WriteString("FAIL: ")
		b.WriteString(p)
		b.WriteByte('\n')
	}
	if r.failed > 0 {
		fmt.Fprintf(&b, "FAIL: %d of %d operations failed or returned a wrong verdict\n", r.failed, r.attempted)
	}
	return b.String()
}
