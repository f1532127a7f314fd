package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the workload child, as the
// benchmark binary does: runChild re-executes os.Executable().
func TestMain(m *testing.M) {
	if plan := os.Getenv(childEnv); plan != "" {
		os.Exit(childMain(plan, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// tinyConfig shrinks every workload so all four run in seconds.
func tinyConfig() config {
	cfg := defaultConfig()
	cfg.root = ".."
	cfg.seconds = 1
	cfg.docSize = 1 << 20
	cfg.sampleSize = 256 << 10
	cfg.corpusDocs = 8
	cfg.corpusSize = 64 << 10
	cfg.hotDocs = 2
	cfg.hotSize = 128 << 10
	cfg.bodySize = 64 << 10
	cfg.rate = 400
	cfg.setups = 1
	cfg.minOps = 1
	return cfg
}

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []bound `json:"end_to_end"`
	PerLayer []bound `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runResults runs cfg and returns each workload's result line by name.
func runResults(t *testing.T, cfg config) (map[string]result, int, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), cfg, &stdout, &stderr)
	results := map[string]result{}
	workload := ""
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var prov struct {
			Provenance *provenance `json:"provenance"`
		}
		if err := json.Unmarshal(sc.Bytes(), &prov); err == nil && prov.Provenance != nil {
			workload = prov.Provenance.Workload
			continue
		}
		var res result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("stdout line %q: %v", sc.Text(), err)
		}
		if workload != "" {
			results[workload] = res
			workload = ""
		}
	}
	return results, code, stderr.String()
}

// TestWorkloadsPrintEveryMetric runs all four workloads at tiny sizes,
// untraced and traced, and checks that each prints exactly the metrics
// BENCHMARK.json names, with their units, from outputs that all verified.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for _, traced := range []bool{false, true} {
		cfg := tinyConfig()
		cfg.trace = traced
		cfg.traceOut = t.TempDir() + "/trace.json"
		want := spec.EndToEnd
		if traced {
			want = spec.PerLayer
		}
		results, code, log := runResults(t, cfg)
		// A tiny run may trip a validity guard (exit 3) on a busy machine;
		// anything else is a failure.
		if code != 0 && code != exitInvalid {
			t.Fatalf("traced=%v: exit code %d\n%s", traced, code, log)
		}
		for _, w := range workloadNames {
			res, ok := results[w]
			if !ok {
				t.Fatalf("traced=%v: no result line for %s\n%s", traced, w, log)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("traced=%v %s: correct=%v attempted=%d failed=%d", traced, w, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("traced=%v %s: %d metrics, BENCHMARK.json names %d", traced, w, len(res.Metrics), len(want))
			}
			for _, b := range want {
				m, ok := res.Metrics[b.Name]
				switch {
				case !ok:
					t.Errorf("traced=%v %s: metric %s missing", traced, w, b.Name)
				case m.Unit != b.Unit:
					t.Errorf("traced=%v %s: metric %s in %q, BENCHMARK.json says %q", traced, w, b.Name, m.Unit, b.Unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s reads %v", w, b.Name, m.Value)
				}
			}
		}
		if traced {
			if got := results[corpusIndex].Metrics["index.hit_ratio"].Value; got != 0.5 {
				t.Errorf("corpus-index index.hit_ratio = %v, want 0.5 by construction", got)
			}
		}
	}
}

// TestCorruptOutputFailsTheRun flips one byte of every verified output and
// checks that the run counts the failures and exits non-zero.
func TestCorruptOutputFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs workloads")
	}
	for _, w := range []string{xmarkSerial, serveMixed} {
		cfg := tinyConfig()
		cfg.seconds = 0.5
		cfg.workloads = []string{w}
		cfg.corrupt = true
		results, code, log := runResults(t, cfg)
		res := results[w]
		if code == 0 || res.Correct || res.Failed == 0 || res.Failed > res.Attempted {
			t.Errorf("%s: corrupted outputs gave exit %d, correct=%v, %d of %d failed\n%s", w, code, res.Correct, res.Failed, res.Attempted, log)
		}
		if !strings.Contains(log, "differs from the reference") {
			t.Errorf("%s: no digest mismatch reported\n%s", w, log)
		}
	}
}

func TestPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // reversed: percentile sorts
		}
		return s
	}
	for _, c := range []struct {
		n      int
		p      float64
		want   float64
		enough bool
	}{
		{100, 50, 50, true},
		{100, 95, 95, false}, // 5 samples beyond
		{199, 95, 190, false},
		{200, 95, 190, true}, // exactly 10 beyond
		{1000, 99, 990, true},
		{1, 50, 1, false},
	} {
		got, enough := percentile(seq(c.n), c.p)
		if got != c.want || enough != c.enough {
			t.Errorf("p%g of 1..%d = %v (enough %v), want %v (enough %v)", c.p, c.n, got, enough, c.want, c.enough)
		}
	}
	if got, enough := percentile(nil, 50); got != 0 || enough {
		t.Errorf("p50 of nothing = %v, %v", got, enough)
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
}

func TestScheduleFollowsSeed(t *testing.T) {
	sched := func(seed uint64) []request { return newMix(seed, 200, 8).openSchedule(5e9) }
	a, b, c := sched(1), sched(1), sched(2)
	if len(a) < 800 || !reflect.DeepEqual(a, b) {
		t.Fatalf("seed 1 gave %d and %d requests, not the same schedule twice", len(a), len(b))
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 1 and 2 gave the same schedule")
	}
	var kinds [3]int
	for _, r := range a {
		kinds[r.kind]++
	}
	if ref := float64(kinds[kindRef]) / float64(len(a)); ref < 0.65 || ref > 0.75 {
		t.Errorf("GET by reference share %.2f, want about 0.7", ref)
	}
}

func TestCompareGate(t *testing.T) {
	around := func(v float64) []float64 {
		s := make([]float64, 10)
		for i := range s {
			s[i] = v * (1 + 0.002*float64(i%5-2))
		}
		return s
	}
	higher := bound{Name: "throughput_mibps", Better: "higher", Bound: 0.1}
	lower := bound{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	wide := []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}
	for _, c := range []struct {
		name           string
		parent, change []float64
		b              bound
		want           string
	}{
		{"faster", around(100), around(110), higher, "gain"},
		{"slower beyond the bound", around(100), around(85), higher, "regression"},
		{"slower within the bound", around(100), around(95), higher, "no change"},
		{"same", around(100), around(100), higher, "no change"},
		{"lower is better", around(10), around(9), lower, "gain"},
		{"wide spread", wide, wide, higher, "unresolved"},
		{"too few", around(100)[:9], around(110)[:9], higher, "too few"},
	} {
		if got := compareMetric(c.parent, c.change, c.b).verdict; !strings.HasPrefix(got, c.want) {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "bench", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "core", Start: 10, End: 30},
		{ID: 3, Parent: 1, Layer: "core", Start: 20, End: 50}, // overlaps span 2
		{ID: 4, Parent: 3, Layer: "scan", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	if self["bench"] != 60 || self["core"] != 40 || self["scan"] != 10 {
		t.Errorf("self times %v, want bench 60, core 40, scan 10", self)
	}
}

func TestBacklogGrows(t *testing.T) {
	if backlogGrows([]int{0, 1, 0, 1, 0, 1, 0, 1}) {
		t.Error("a steady backlog reported as growing")
	}
	if !backlogGrows([]int{0, 1, 2, 3, 5, 8, 13, 21}) {
		t.Error("a growing backlog not reported")
	}
}
