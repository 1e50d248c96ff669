// Command perfbench is the repository's benchmark. It drives the PHP
// serving stack only through its public entry points, on one of four
// named workloads, and prints a human-readable report followed by one
// JSON object on the last line of standard output:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the whole-request ones; with --trace 1
// they are the per-layer ones, from a run that records spans and a CPU
// profile. README.md records why each workload exists and which layer
// metric should move which whole-request metric.
//
// Run it through run.sh, which builds this package and cmd/phpserve.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"time"
)

// Load shape shared by every workload: a closed loop of two clients (the
// host has two cores) against two pool workers, pages drawn from a
// Zipf(1.0) stream over 512 pages, after the paper's 300-request-per-worker
// warmup.
const (
	numPages        = 512
	zipfS           = 1.0
	numWorkers      = 2
	numClients      = 2
	warmupPerWorker = 300
	ctxSwitchEvery  = 64 // phpserve's -ctxswitch default
	queueDepth      = 64 // phpserve's -queue default; 2 clients never fill it

	// contentSeed fixes the page corpus, so the per-page render cost is
	// the same for every --seed; the seed picks the request stream.
	contentSeed = 1

	// simRequests is the length of the deterministic simulation pass
	// that the sim_* metrics come from.
	simRequests = 2000
	// httpSimRequests is the same for http_cache_zipf, longer because
	// its simulated cost is dominated by the miss count, which varies
	// more from seed to seed than the page mix does.
	httpSimRequests = 6000
	// cacheEntries is phpserve's -cache capacity for http_cache_zipf.
	cacheEntries = 128
	// cacheWarmRequests is the sequential request count that brings
	// phpserve's response cache to a steady state before timing.
	cacheWarmRequests = 1500
	// A run sets the system up at least minSetups times, and more while
	// the setups so far took less than setupBudget in total, so that the
	// median (setup_s) of a fast setup rests on more samples.
	minSetups   = 5
	maxSetups   = 25
	setupBudget = 2 * time.Second
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

var e2eMetrics = []metricDef{
	{"req_per_s", "1/s"},
	{"cpu_us_per_req", "us"},
	{"latency_p50_us", "us"},
	{"latency_p90_us", "us"},
	{"sim_cycles_per_req", "cycles"},
	{"sim_energy_pj_per_req", "pJ"},
	{"allocs_per_req", "count"},
	{"alloc_bytes_per_req", "bytes"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// hostLayers are the repository's layers that the traced run splits host
// CPU time across (see profile.go for the package mapping).
var hostLayers = []string{
	"serve", "cache", "workload", "php", "phpval", "vm", "isa",
	"straccel", "hashtable", "heapmgr", "regexaccel",
	"hashmap", "heap", "strlib", "regex", "sim", "trace", "obs", "arena",
	"net", "goruntime", "other",
}

var simCategories = []string{"other", "hash", "heap", "string", "regex", "typecheck", "refcount", "kernel"}

func layerMetrics() []metricDef {
	defs := []metricDef{
		{"serve.queue_wait_us.p50", "us"},
		{"serve.queue_wait_us.p90", "us"},
		{"serve.self_us.p50", "us"},
		{"serve.shed", "count"},
		{"workload.render_us.p50", "us"},
		{"workload.render_us.p90", "us"},
		{"workload.resp_bytes_per_req", "bytes"},
		{"cache.hit_ratio", "ratio"},
		{"cache.coalesced", "count"},
		{"cache.evictions_per_req", "count"},
		{"phpserve.hit_rtt_us.p50", "us"},
		{"phpserve.hit_rtt_us.p90", "us"},
		{"phpserve.miss_rtt_us.p50", "us"},
		{"phpserve.miss_rtt_us.p90", "us"},
		{"loadgen.client_cpu_us_per_req", "us"},
		{"php.bytecode_calls_per_req", "count"},
		{"php.interp_calls_per_req", "count"},
		{"php.ic_hit_ratio", "ratio"},
		{"hashtable.get_hit_ratio", "ratio"},
		{"hashtable.writebacks_per_req", "count"},
		{"regex_cache.hit_ratio", "ratio"},
		{"hashmap.rebuilds_per_req", "count"},
	}
	for _, c := range simCategories {
		defs = append(defs, metricDef{"sim.cycles_per_req." + c, "cycles"})
	}
	defs = append(defs, metricDef{"sim.host_ns_per_kcycle", "ns"})
	for _, l := range hostLayers {
		defs = append(defs, metricDef{"host_us." + l, "us"})
	}
	return append(defs,
		metricDef{"go.gc_cycles_per_1k_req", "count"},
		metricDef{"trace.cpu_us_per_req", "us"},
		metricDef{"trace.overhead_ratio", "ratio"},
	)
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	phpserve string // path of the phpserve binary (http_cache_zipf)
	out      string // directory for span, profile and server log files
}

// result is what a workload run hands back to main.
type result struct {
	attempted int
	failed    int
	correct   bool
	metrics   map[string]float64
	report    []string // human-readable lines printed before the JSON
}

func (r *result) set(name string, v float64) { r.metrics[name] = v }
func (r *result) note(format string, a ...any) {
	r.report = append(r.report, fmt.Sprintf(format, a...))
}

var workloads = map[string]func(options) (*result, error){
	"wp_accel":        func(o options) (*result, error) { return runInproc(o, wpAccel) },
	"wp_soft":         func(o options) (*result, error) { return runInproc(o, wpSoft) },
	"blog_script":     func(o options) (*result, error) { return runInproc(o, blogScript) },
	"http_cache_zipf": runHTTP,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: wp_accel, wp_soft, blog_script or http_cache_zipf")
	flag.Int64Var(&o.seed, "seed", 1, "request-stream seed")
	flag.IntVar(&o.seconds, "seconds", 25, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 whole-request metrics")
	flag.StringVar(&o.phpserve, "phpserve", "", "phpserve binary (built by run.sh)")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for span, profile and log files")
	flag.Parse()
	o.trace = trace == 1

	run, ok := workloads[o.workload]
	switch {
	case !ok:
		fail(fmt.Errorf("unknown --workload %q", o.workload))
	case o.seconds < 2:
		fail(fmt.Errorf("--seconds must be at least 2, got %d", o.seconds))
	case trace != 0 && trace != 1:
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", trace))
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fail(err)
	}
	steal0, total0, err := hostCPUTicks()
	if err != nil {
		fail(err)
	}
	res, err := run(o)
	if err != nil {
		fail(err)
	}
	steal1, total1, err := hostCPUTicks()
	if err != nil {
		fail(err)
	}
	// Steal is CPU time the hypervisor gave to other tenants; it slows the
	// wall-clock metrics of a run without showing in cpu_us_per_req.
	res.note("host steal time during the run: %.1f%% of CPU time", 100*ratio(steal1-steal0, total1-total0))
	defs := e2eMetrics
	if o.trace {
		defs = layerMetrics()
	}
	line, err := encodeResult(res, defs)
	if err != nil {
		fail(err)
	}
	for _, l := range res.report {
		fmt.Println(l)
	}
	printMetrics(res, defs)
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// encodeResult builds the final JSON line. Every metric of defs must have
// been measured and be finite.
func encodeResult(res *result, defs []metricDef) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]value{}}
	var errs []error
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			errs = append(errs, fmt.Errorf("metric %s missing or not finite (%v)", d.name, v))
			continue
		}
		out.Metrics[d.name] = value{v, d.unit}
	}
	if res.attempted < 1 {
		errs = append(errs, errors.New("no request was attempted"))
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return json.Marshal(out)
}

func printMetrics(res *result, defs []metricDef) {
	fmt.Printf("%-34s %16s  %s\n", "metric", "value", "unit")
	for _, d := range defs {
		fmt.Printf("%-34s %16.6g  %s\n", d.name, res.metrics[d.name], d.unit)
	}
	fmt.Printf("%-34s %16.6g  %s (%d of %d attempted)\n", "fail_ratio",
		ratio(float64(res.failed), float64(res.attempted)), "ratio", res.failed, res.attempted)
}

// needSetup reports whether a run should set up once more, given the
// durations (seconds) of the setups so far.
func needSetup(times []float64) bool {
	var total float64
	for _, t := range times {
		total += t
	}
	return len(times) < minSetups || (len(times) < maxSetups && total < setupBudget.Seconds())
}

// median returns the middle value of xs (mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// pctUS returns the q-quantile (nearest rank) of ds in microseconds.
func pctUS(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	return pctSorted(s, q)
}

// pctSorted is pctUS for a sorted, non-empty slice.
func pctSorted(s []time.Duration, q float64) float64 {
	i := int(math.Ceil(q*float64(len(s)))) - 1
	i = max(0, min(i, len(s)-1))
	return float64(s[i]) / float64(time.Microsecond)
}

// ratio returns a/b, or 0 when b is 0 (a counter that saw no events).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
