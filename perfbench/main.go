// Command perfbench is the repository's benchmark: four workloads that
// drive the lightweight-thread runtime, its serving layer, the async
// I/O reactor and the cluster gateway through their public functions,
// check every output, and print each metric by name with its unit.
//
//	go run . --workload serve-short --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line holds the end-to-end metrics; with
// --trace 1 it holds the per-layer metrics, taken from spans the
// benchmark records around each call it makes. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
)

// config is one run's command line.
type config struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	out       string // directory for span dumps and worker trace files
	lwtserved string // worker binary for gate-http
	commit    string
}

// rng returns the run's random source for one purpose; the stream
// argument keeps arrivals and key draws independent of each other.
func (c *config) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(c.seed, stream))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload hands back: its timed phases, checks and
// metrics, plus free-form detail printed before the final line.
type result struct {
	phases  []*phase
	checks  []string // failed checks; empty means correct
	metrics map[string]metric
	info    map[string]any
}

func newResult() *result {
	return &result{metrics: map[string]metric{}, info: map[string]any{}}
}

func (r *result) set(name, unit string, v float64) { r.metrics[name] = metric{v, unit} }

func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
}

func (r *result) newPhase(name string) *phase {
	p := &phase{name: name}
	r.phases = append(r.phases, p)
	return p
}

// endToEnd and perLayer are the metric names a run prints, with their
// units; BENCHMARK.json lists the same.
var endToEnd = [][2]string{
	{"setup_s", "s"}, {"latency_p50_ms", "ms"}, {"peak_rps", "1/s"},
	{"units_per_s", "1/s"}, {"max_rss_mb", "MB"},
}

var perLayer = [][2]string{
	{"loadgen.late_ms_p99", "ms"}, {"loadgen.late_ms_max", "ms"}, {"loadgen.http_us_p50", "us"},
	{"core.ult_create_ns_p50", "ns"}, {"core.join_ns_p50", "ns"},
	{"core.bulk_create_us_p50", "us"}, {"core.joinall_us_p50", "us"},
	{"core.sched_pushes_per_job", "count"},
	{"core.sched_steals_per_job", "count"}, {"core.sched_empty_pops_per_job", "count"},
	{"core.sched_contended_per_job", "count"}, {"core.empty_pop_ratio", "ratio"},
	{"core.allocs_per_unit", "count"},
	{"serve.admit_ns_p50", "ns"}, {"serve.admit_ns_p99", "ns"},
	{"serve.queue_us_p50", "us"}, {"serve.queue_us_p99", "us"}, {"serve.run_us_p50", "us"},
	{"serve.wake_us_p50", "us"}, {"serve.wake_us_p99", "us"},
	{"serve.allocs_per_req", "count"}, {"serve.bytes_per_req", "B"},
	{"serve.saturated_ratio", "ratio"}, {"serve.expired_ratio", "ratio"},
	{"serve.steals_per_req", "count"}, {"serve.snapshot_us_p50", "us"},
	{"aio.sleep_overshoot_us_p50", "us"}, {"aio.sleep_overshoot_us_p99", "us"}, {"aio.parked_max", "count"},
	{"cluster.serve_us_p50", "us"}, {"cluster.serve_us_p99", "us"},
	{"cluster.proxy_us_p50", "us"}, {"cluster.proxy_us_p99", "us"},
	{"cluster.retry_ratio", "ratio"}, {"cluster.reroute503_ratio", "ratio"},
	{"cluster.keyed_owner_ratio", "ratio"},
	{"lwtserved.handler_us_p50", "us"}, {"lwtserved.handler_us_p99", "us"},
	{"e2e.latency_p99_ms", "ms"}, {"e2e.job_ms_p50", "ms"}, {"e2e.job_ms_p99", "ms"},
	{"trace.overhead_pct", "%"},
}

// zeroLayers sets every per-layer metric to 0 — the value for a layer
// the workload never calls — before the workload sets its own.
func zeroLayers(res *result) {
	for _, m := range perLayer {
		res.set(m[0], m[1], 0)
	}
}

var workloads = map[string]func(*config) (*result, error){
	"dag":         runDag,
	"serve-short": runServeShort,
	"serve-io":    runServeIO,
	"gate-http":   runGate,
}

func main() {
	cfg := &config{}
	flag.StringVar(&cfg.workload, "workload", "", "dag, serve-short, serve-io or gate-http")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed for arrivals and key draws")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for span dumps and worker files")
	flag.StringVar(&cfg.lwtserved, "lwtserved", "", "lwtserved binary (gate-http)")
	flag.StringVar(&cfg.commit, "commit", "unknown", "commit or source digest to stamp on the result")
	flag.Parse()
	cfg.trace = *trace == 1
	run := workloads[cfg.workload]
	if run == nil || cfg.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", cfg.workload, cfg.seconds, *trace)
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	os.Exit(report(cfg, res))
}

// report prints the environment stamp, the phases and detail, then the
// result line, and returns the exit code.
func report(cfg *config, res *result) int {
	line := func(v any) {
		b, _ := json.Marshal(v)
		fmt.Println(string(b))
	}
	line(map[string]any{"env": map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": cfg.commit,
	}})
	var attempted, failed int64
	phases := map[string]any{}
	for _, p := range res.phases {
		attempted += p.sent.Load()
		failed += p.failed()
		phases[p.name] = p.report()
	}
	line(map[string]any{"phases": phases})
	if len(res.info) > 0 {
		line(map[string]any{"detail": res.info})
	}
	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	metrics := map[string]metric{}
	for _, m := range names {
		v, ok := res.metrics[m[0]]
		res.check(ok && v.Unit == m[1], "metric %s not measured", m[0])
		metrics[m[0]] = v
	}
	for _, c := range res.checks {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", c)
	}
	correct := len(res.checks) == 0 && attempted > 0
	line(map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})
	if !correct {
		return 1
	}
	return 0
}

// maxRSSMB is this process's peak resident set, in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}

// spanFile is where a traced run leaves its spans.
func spanFile(cfg *config) string {
	return filepath.Join(cfg.out, "spans-"+cfg.workload+".csv")
}
