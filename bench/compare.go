package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// compareMain implements
//
//	bench -compare PARENT.out... -against CHANGE.out... [-benchmark BENCHMARK.json]
//
// Each file holds the standard output of benchmark runs. Runs are grouped
// by workload and paired in file order; every (workload, end-to-end metric)
// gets one row and a verdict under the gate of the choosing-metrics method:
//
//   - gain: the change wins at least 9 of 10 pairs and the medians differ by
//     more than the parent's interquartile range;
//   - unresolved: the parent's spread (IQR over median) exceeds the metric's
//     bound and not every change run beats every parent run;
//   - regression: the change's median is worse than the parent's by more
//     than the bound;
//   - no change otherwise.
//
// It exits 1 when any row is a regression.
func compareMain(args []string, stdout, stderr io.Writer) int {
	benchFile := "BENCHMARK.json"
	var parent, change []string
	dst := &parent
	for i := 0; i < len(args); i++ {
		switch strings.TrimLeft(args[i], "-") {
		case "against":
			dst = &change
		case "benchmark":
			if i+1 < len(args) {
				benchFile = args[i+1]
				i++
			}
		default:
			*dst = append(*dst, args[i])
		}
	}
	if len(parent) == 0 || len(change) == 0 {
		fmt.Fprintln(stderr, "usage: bench -compare PARENT.out... -against CHANGE.out... [-benchmark BENCHMARK.json]")
		return 2
	}
	bounds, err := readBounds(benchFile)
	if err != nil {
		fmt.Fprintln(stderr, "bench -compare:", err)
		return 2
	}
	p, err := loadRuns(parent)
	if err != nil {
		fmt.Fprintln(stderr, "bench -compare:", err)
		return 2
	}
	c, err := loadRuns(change)
	if err != nil {
		fmt.Fprintln(stderr, "bench -compare:", err)
		return 2
	}

	code := 0
	fmt.Fprintf(stdout, "%-14s %-17s %6s %28s %28s %8s  %s\n", "workload", "metric", "pairs", "parent median [q1, q3]", "change median [q1, q3]", "change", "verdict")
	for _, wl := range sortedKeys(p) {
		for _, b := range bounds {
			pv, cv := p[wl][b.Name], c[wl][b.Name]
			n := min(len(pv), len(cv))
			row := compareMetric(pv[:n], cv[:n], b)
			if row.verdict == "regression" {
				code = 1
			}
			fmt.Fprintf(stdout, "%-14s %-17s %6d %28s %28s %+7.2f%%  %s\n", wl, b.Name, n,
				summarize(pv[:n]), summarize(cv[:n]), row.deltaPct, row.verdict)
		}
	}
	return code
}

// bound is one end_to_end entry of BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds(path string) ([]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, nil
}

// loadRuns reads saved run outputs: every provenance line names the
// workload of the result line that follows it.
func loadRuns(files []string) (map[string]map[string][]float64, error) {
	runs := map[string]map[string][]float64{}
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		workload := ""
		for sc.Scan() {
			line := sc.Bytes()
			var prov struct {
				Provenance *provenance `json:"provenance"`
			}
			if json.Unmarshal(line, &prov) == nil && prov.Provenance != nil {
				workload = prov.Provenance.Workload
				continue
			}
			var res result
			if workload == "" || json.Unmarshal(line, &res) != nil || res.Metrics == nil {
				continue
			}
			if runs[workload] == nil {
				runs[workload] = map[string][]float64{}
			}
			for k, m := range res.Metrics {
				runs[workload][k] = append(runs[workload][k], m.Value)
			}
			workload = ""
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	return runs, nil
}

// comparison is one row's verdict.
type comparison struct {
	deltaPct float64
	verdict  string
}

// compareMetric applies the gate to paired parent and change values.
func compareMetric(parent, change []float64, b bound) comparison {
	if len(parent) < 10 {
		return comparison{verdict: fmt.Sprintf("too few pairs (%d < 10)", len(parent))}
	}
	lower := b.Better == "lower"
	better := func(x, y float64) bool { // x better than y
		if lower {
			return x < y
		}
		return x > y
	}
	pm, cm := median(parent), median(change)
	q1, q3 := quartiles(parent)
	iqr := q3 - q1
	row := comparison{}
	if pm != 0 {
		row.deltaPct = 100 * (cm - pm) / math.Abs(pm)
	}
	wins := 0
	for i := range parent {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	worse := cm - pm
	if !lower {
		worse = pm - cm
	}
	switch {
	case 10*wins >= 9*len(parent) && math.Abs(cm-pm) > iqr && better(cm, pm):
		row.verdict = "gain"
	case pm != 0 && iqr/math.Abs(pm) > b.Bound && !allBetter:
		row.verdict = fmt.Sprintf("unresolved (spread %.1f%% > bound %.0f%%)", 100*iqr/math.Abs(pm), 100*b.Bound)
	case worse > b.Bound*math.Abs(pm):
		row.verdict = "regression"
	default:
		row.verdict = "no change"
	}
	return row
}

// summarize renders "median [q1, q3]".
func summarize(vs []float64) string {
	if len(vs) < 2 {
		return "-"
	}
	q1, q3 := quartiles(vs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(vs), q1, q3)
}
