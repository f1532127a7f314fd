// Command bench is the repository's end-to-end benchmark. It drives every
// layer of SMP through its public calls — Compile/CompileMulti, Project,
// MultiProject, Batch with persisted indexes, and a real smpserve process
// over HTTP — on inputs generated from a seed, checks every output byte for
// byte against references computed before timing, and prints every metric
// by name with its unit. See README.md for the workloads, the metric
// glossary and the calibration numbers.
//
// Usage (from the repository root, through bench/run.sh, which builds the
// benchmark inside the checkout first):
//
//	bash bench/run.sh --workload xmark-serial --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --seed 1                     # every workload in turn
//	bash bench/run.sh --seed 1 --trace 1 --trace-out t.json
//	bash bench/run.sh -compare PARENT.out... -against CHANGE.out...
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A run whose outputs do not all
// verify, or that breaks a validity guard, exits non-zero.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one printed metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, measured with tracing
// off and printed for every workload.
var endToEnd = []metricDef{
	{"throughput_mibps", "MiB/s"},
	{"throughput_ops", "op/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"setup_s", "s"},
	{"mem_peak_mib", "MiB"},
}

// perLayer are the traced run's metrics. Every traced run prints all of
// them; a layer that is not on a workload's path reads 0 there.
var perLayer = []metricDef{
	{"compile.ms_per_query", "ms"},
	{"core.project_ms_p50", "ms"},
	{"core.char_comp_pct", "%"},
	{"core.tags_matched_per_mib", "1/MiB"},
	{"core.output_ratio", "ratio"},
	{"core.max_buffer_kib", "KiB"},
	{"scan.kernel_mibps", "MiB/s"},
	{"scan.candidates_per_mib", "1/MiB"},
	{"scan.e2e_over_kernel", "ratio"},
	{"mmapio.map_us", "us"},
	{"mmapio.zero_copy_share", "ratio"},
	{"pipeline.scan_ms", "ms"},
	{"pipeline.replay_ms", "ms"},
	{"pipeline.stage_cover", "ratio"},
	{"pipeline.char_comp_pct", "%"},
	{"pipeline.max_buffer_kib", "KiB"},
	{"index.hit_ratio", "ratio"},
	{"index.summary_skip_ratio", "ratio"},
	{"index.build_ms_per_mib", "ms/MiB"},
	{"index.sidecar_ratio", "ratio"},
	{"index.read_us", "us"},
	{"index.bind_us", "us"},
	{"index.replay_us", "us"},
	{"index.scan_fallback_us", "us"},
	{"corpus.job_ms_p50", "ms"},
	{"corpus.job_ms_p99", "ms"},
	{"corpus.worker_busy_share", "ratio"},
	{"corpus.failed_jobs", "count"},
	{"smpserve.latency_p99_ms", "ms"},
	{"smpserve.latency_samples", "count"},
	{"smpserve.server_mean_ms", "ms"},
	{"smpserve.http_overhead_ms", "ms"},
	{"smpserve.coalesce_batch_mean", "count"},
	{"smpserve.coalesced_share", "ratio"},
	{"smpserve.ref_ms_p50", "ms"},
	{"smpserve.body_ms_p50", "ms"},
	{"smpserve.upload_ms_p50", "ms"},
	{"smpserve.doc_cache_hit_ratio", "ratio"},
	{"smpserve.plan_cache_hit_ratio", "ratio"},
	{"smpserve.shed_total", "count"},
	{"smpserve.gen_lag_ms_p99", "ms"},
	{"smpserve.backlog_max", "count"},
	{"obs.scrape_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// Workload names.
const (
	xmarkSerial  = "xmark-serial"
	medlineMulti = "medline-multi"
	corpusIndex  = "corpus-index"
	serveMixed   = "serve-mixed"
)

var workloadNames = []string{xmarkSerial, medlineMulti, corpusIndex, serveMixed}

// config is one benchmark invocation. defaultConfig holds the sizes the
// calibration in README.md was measured with; tests shrink them.
type config struct {
	root      string // the repository checkout: smpserve is built from it, scratch files stay in it
	workloads []string
	seed      uint64
	seconds   float64
	trace     bool
	traceOut  string

	docSize    int64   // the xmark-serial and medline-multi document
	sampleSize int64   // per-dataset sample for the oracle check and index probes
	corpusDocs int     // corpus-index documents
	corpusSize int64   // bytes per corpus-index document
	hotDocs    int     // serve-mixed documents uploaded in set-up
	hotSize    int64   // bytes per hot document
	bodySize   int64   // POST /project bodies and fresh uploads
	rate       float64 // serve-mixed open-loop arrivals per second
	setups     int     // set-up repetitions; setup_s is their median
	minOps     int64   // fewer completed operations make a run invalid

	// corrupt flips one byte of every verified output before it is hashed.
	// Only tests set it: it proves that a wrong output fails the run.
	corrupt bool
}

func defaultConfig() config {
	return config{
		root:       ".",
		workloads:  workloadNames,
		seed:       1,
		seconds:    15,
		docSize:    8 << 20,
		sampleSize: 1 << 20,
		corpusDocs: 128,
		corpusSize: 256 << 10,
		hotDocs:    8,
		hotSize:    512 << 10,
		bodySize:   256 << 10,
		rate:       200,
		setups:     5,
		minOps:     200,
	}
}

// exitInvalid is the exit code of a run whose outputs all verified but that
// broke a validity guard: too few operations, a late open-loop generator or
// a growing backlog.
const exitInvalid = 3

// childEnv names the plan file of a workload child process: the benchmark
// binary re-executes itself with it set to run W1–W3 in a process of their
// own, whose memory is measured alone.
const childEnv = "SMP_BENCH_CHILD_PLAN"

func main() {
	if plan := os.Getenv(childEnv); plan != "" {
		os.Exit(childMain(plan, os.Stdout, os.Stderr))
	}
	if len(os.Args) > 1 && strings.TrimLeft(os.Args[1], "-") == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	cfg := defaultConfig()
	workload := flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+" or all")
	trace := flag.Int("trace", 0, "1 runs traced: prints the per-layer metrics and writes a Chrome trace")
	flag.Uint64Var(&cfg.seed, "seed", cfg.seed, "workload seed: every input and request derives from it")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "length of the timed window in seconds")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "Chrome trace file of a traced run (default .bench_build/trace-<workload>-<seed>.json)")
	flag.Parse()
	if *workload != "all" {
		cfg.workloads = []string{*workload}
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = *trace == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, cfg, os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// provenance is printed on standard output before each result line, so a
// saved run says what produced it.
type provenance struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Trace      bool               `json:"trace"`
	GitRev     string             `json:"git_rev"`
	GoVersion  string             `json:"go_version"`
	NumCPU     int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Phases     map[string]float64 `json:"phases_s"`
	// MachineSpeed is the machine's speed as a share of the calibration
	// machine's, the median over the timed window's calls (yardstick.go);
	// RawMiBps is throughput_mibps as timed, before scaling by it.
	MachineSpeed float64 `json:"machine_speed,omitempty"`
	RawMiBps     float64 `json:"raw_throughput_mibps"`
	// GenLagP99Ms is how late the open-loop generator sent its requests.
	GenLagP99Ms float64 `json:"gen_lag_p99_ms,omitempty"`
}

// outcome is what one workload measured.
type outcome struct {
	attempted, failed int64
	e2e               map[string]float64
	layer             map[string]float64
	phases            map[string]float64
	speed             float64  // median machine speed share of the library window (yardstick.go), 0 for serve-mixed
	rawMiBps          float64  // throughput_mibps before scaling
	genLagMs          float64  // p99 open-loop generator lateness, serve-mixed only
	invalid           []string // broken validity guards
	errors            []string // the first verification failures
}

// runEnv is the per-invocation context a workload runs in.
type runEnv struct {
	cfg   config
	build string // <root>/.bench_build: binaries and scratch space
	dir   string // this invocation's scratch directory, removed at exit
	tr    *tracer
	log   io.Writer
}

// run executes cfg's workloads and returns the process exit code.
func run(ctx context.Context, cfg config, stdout, stderr io.Writer) int {
	for _, w := range cfg.workloads {
		if !slices.Contains(workloadNames, w) {
			fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %s)\n", w, strings.Join(workloadNames, ", "))
			return 2
		}
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	build, err := filepath.Abs(filepath.Join(cfg.root, ".bench_build"))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	dir := filepath.Join(build, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	code := 0
	summary := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range cfg.workloads {
		env := &runEnv{cfg: cfg, build: build, dir: filepath.Join(dir, name), log: stderr}
		if err := os.MkdirAll(env.dir, 0o755); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if cfg.trace {
			env.tr = newTracer(1)
		}
		res, c := runWorkload(ctx, env, name, stdout, stderr)
		if c != 0 {
			code = c
		}
		summary.Correct = summary.Correct && res.Correct
		summary.Attempted += res.Attempted
		summary.Failed += res.Failed
		for k, v := range res.Metrics {
			summary.Metrics[name+"."+k] = v
		}
		if ctx.Err() != nil {
			return 1
		}
	}
	if len(cfg.workloads) > 1 {
		// Several workloads: the last line sums them, metric names prefixed
		// with the workload.
		if err := json.NewEncoder(stdout).Encode(summary); err != nil {
			return 1
		}
	}
	return code
}

// runWorkload runs one workload and prints its provenance and result lines.
func runWorkload(ctx context.Context, env *runEnv, name string, stdout, stderr io.Writer) (result, int) {
	cfg := env.cfg
	fmt.Fprintf(stderr, "bench: %s seed=%d seconds=%g trace=%v\n", name, cfg.seed, cfg.seconds, cfg.trace)
	var out *outcome
	var err error
	if name == serveMixed {
		out, err = runServe(ctx, env)
	} else {
		out, err = runLibrary(ctx, env, name)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
		return result{}, 1
	}

	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	defs, values := endToEnd, out.e2e
	if cfg.trace {
		defs, values = perLayer, out.layer
	}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out.invalid = append(out.invalid, fmt.Sprintf("metric %s is not a number", d.name))
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = max(res.Failed, 1)
		res.Correct = false
	}

	fmt.Fprintf(stderr, "bench: %s: %d operations, %d failed\n", name, out.attempted, out.failed)
	for _, e := range out.errors {
		fmt.Fprintf(stderr, "bench: %s: %s\n", name, e)
	}
	for _, d := range defs {
		fmt.Fprintf(stderr, "  %-30s %14.4f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	if out.speed > 0 {
		fmt.Fprintf(stderr, "  machine speed %.3f of nominal; raw throughput %.1f MiB/s\n", out.speed, out.rawMiBps)
	}
	if cfg.trace {
		if err := writeTrace(env, name); err != nil {
			fmt.Fprintf(stderr, "bench: %s: writing the trace: %v\n", name, err)
			return res, 1
		}
	}

	prov := provenance{
		Workload: name, Seed: cfg.seed, Trace: cfg.trace, GitRev: gitRev(),
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Phases: out.phases, MachineSpeed: out.speed, RawMiBps: out.rawMiBps, GenLagP99Ms: out.genLagMs,
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]provenance{"provenance": prov}); err != nil {
		return res, 1
	}
	if err := enc.Encode(res); err != nil {
		return res, 1
	}
	switch {
	case !res.Correct:
		fmt.Fprintf(stderr, "bench: %s: %d of %d operations failed verification\n", name, res.Failed, res.Attempted)
		return res, 1
	case len(out.invalid) > 0:
		for _, msg := range out.invalid {
			fmt.Fprintf(stderr, "bench: %s: invalid run: %s\n", name, msg)
		}
		return res, exitInvalid
	}
	return res, 0
}

// writeTrace writes the traced run's spans as a Chrome trace and prints the
// per-layer self times.
func writeTrace(env *runEnv, name string) error {
	spans := env.tr.snapshot()
	fmt.Fprintf(env.log, "bench: %s: per-layer self time over %d spans\n", name, len(spans))
	writeSelfTimes(env.log, spans)
	path := env.cfg.traceOut
	if path == "" {
		path = filepath.Join(env.build, fmt.Sprintf("trace-%s-%d.json", name, env.cfg.seed))
	} else if len(env.cfg.workloads) > 1 {
		ext := filepath.Ext(path)
		path = strings.TrimSuffix(path, ext) + "-" + name + ext
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = writeChromeTrace(f, spans, map[int]string{1: "bench", 2: "bench " + name + " child"})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		fmt.Fprintf(env.log, "bench: %s: Chrome trace written to %s\n", name, path)
	}
	return err
}

// latencyMetrics fills the latency metrics from per-operation samples (ms)
// and reports a validity problem when p95 lacks the samples beyond it.
func latencyMetrics(out *outcome, lat []float64) {
	p50, _ := percentile(lat, 50)
	p95, ok := percentile(lat, 95)
	out.e2e["latency_p50_ms"] = p50
	out.e2e["latency_p95_ms"] = p95
	if !ok {
		out.invalid = append(out.invalid, fmt.Sprintf("latency_p95_ms rests on %d samples: fewer than %d lie beyond it", len(lat), minTail))
	}
}

// checkOps enforces the minimum operation count of a timed window.
func checkOps(out *outcome, phase string, ops, min int64) {
	if ops < min {
		out.invalid = append(out.invalid, fmt.Sprintf("%s completed %d operations, fewer than %d", phase, ops, min))
	}
}

// gitRev returns the VCS revision the benchmark binary was built from, as
// the Go toolchain embedded it ("unknown" outside a git checkout).
func gitRev() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// rssSampler polls a process's anonymous resident memory (RssAnon in
// /proc/<pid>/status) every rssEvery.
type rssSampler struct {
	pid     int
	samples []float64 // KiB; written by the sampling goroutine, read after done
	stop    chan struct{}
	done    chan struct{}
}

const (
	rssEvery = 50 * time.Millisecond
	rssSlice = int(time.Second / rssEvery) // samples per peak
)

func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{pid: pid, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			if kib, err := rssAnonKiB(s.pid); err == nil {
				s.samples = append(s.samples, float64(kib))
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops sampling and returns the peak in MiB: the median over
// one-second slices of each slice's highest sample. The overall maximum
// moves by a third between runs with when the garbage collector happens to
// run; the usual per-second peak holds still.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	var peaks []float64
	for i := 0; i < len(s.samples); i += rssSlice {
		peaks = append(peaks, slices.Max(s.samples[i:min(i+rssSlice, len(s.samples))]))
	}
	return median(peaks) / 1024
}

func rssAnonKiB(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "RssAnon:"); ok {
			var kib int64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%d kB", &kib); err != nil {
				return 0, err
			}
			return kib, nil
		}
	}
	return 0, errors.New("no RssAnon line")
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
