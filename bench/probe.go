package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"smp"
	"smp/internal/compile"
	"smp/internal/core"
	"smp/internal/dtd"
	"smp/internal/mmapio"
	"smp/internal/paths"
)

// Probe calls run after a traced window on the workload's own inputs. They
// isolate one layer each — compile, the serial engine, the SWAR scan
// kernel, the mapping, the K×W pipeline, the index — so a change to that
// layer shows in its own number even where the end-to-end mix hides it.

// probeInput is what the probes run on.
type probeInput struct {
	dtd    string
	specs  []string
	pfs    []*smp.Prefilter // compiled specs, in order
	doc    string           // a full-size workload document
	sample string           // the dataset's sample document
	dir    string           // scratch space for a probe sidecar
}

// probeReps repeats each timed probe; the reported value is the median.
const probeReps = 5

// timeMedian runs f reps times and returns the median duration.
func timeMedian(reps int, f func() error) (time.Duration, error) {
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds)), nil
}

// probeLayers measures the per-layer numbers that need isolated calls.
func probeLayers(ctx context.Context, tr *tracer, in probeInput) (map[string]float64, error) {
	m := map[string]float64{}
	root := tr.begin("probes", "bench", 0, 0, 0)
	defer root.end()
	parent := root.id()
	doc, err := os.ReadFile(in.doc)
	if err != nil {
		return nil, err
	}
	sample, err := os.ReadFile(in.sample)
	if err != nil {
		return nil, err
	}

	// compile: the whole query set, per query.
	sp := tr.begin("Compile ×"+fmt.Sprint(len(in.specs)), "compile", parent, 0, 0)
	d, err := timeMedian(probeReps, func() error {
		_, err := compileAll(in.dtd, in.specs)
		return err
	})
	sp.end()
	if err != nil {
		return nil, err
	}
	m["compile.ms_per_query"] = ms(d) / float64(len(in.specs))

	// core: one serial Project per query over an in-memory reader, the
	// streaming-window path a buffered request body takes.
	var sum smp.Stats
	var lat []float64
	for i, pf := range in.pfs {
		sp := tr.begin("Prefilter.Project "+fmt.Sprint(i), "core", parent, 0, 0)
		t0 := time.Now()
		st, err := pf.Project(ctx, io.Discard, bytes.NewReader(doc))
		lat = append(lat, ms(time.Since(t0)))
		sp.end()
		if err != nil {
			return nil, err
		}
		sum.Add(st)
	}
	m["core.project_ms_p50"] = median(lat)
	m["core.char_comp_pct"] = sum.CharCompPercent()
	m["core.tags_matched_per_mib"] = float64(sum.TagsMatched) / mib(sum.BytesRead)
	m["core.output_ratio"] = sum.OutputRatio()
	m["core.max_buffer_kib"] = float64(sum.MaxBufferBytes) / 1024

	// scan: the SWAR kernel over the union vocabulary of the queries,
	// scanning the mapped document in place.
	sp = tr.begin("ScanPlan.Scan", "scan", parent, 0, 0)
	kernel, cands, err := probeKernel(in, doc)
	sp.end()
	if err != nil {
		return nil, err
	}
	m["scan.kernel_mibps"] = mib(int64(len(doc))) / kernel.Seconds()
	m["scan.candidates_per_mib"] = float64(cands) / mib(int64(len(doc)))

	// mmapio: mapping and unmapping the document file.
	sp = tr.begin("mmapio.Map", "mmapio", parent, 0, 0)
	f, err := os.Open(in.doc)
	if err != nil {
		return nil, err
	}
	d, err = timeMedian(4*probeReps+1, func() error {
		mp, err := mmapio.Map(f)
		if err != nil {
			return err
		}
		return mp.Close()
	})
	f.Close()
	sp.end()
	if err != nil {
		return nil, err
	}
	m["mmapio.map_us"] = float64(d) / 1e3

	// pipeline: all queries merged, scanned by batchWorkers workers.
	multi, err := smp.NewMultiPrefilter(in.pfs...)
	if err != nil {
		return nil, err
	}
	var runs []smp.Stats
	var walls []float64
	for i := 0; i < probeReps; i++ {
		sp := tr.begin("MultiPrefilter.MultiProject", "pipeline", parent, 0, 0)
		f, err := os.Open(in.doc)
		if err != nil {
			return nil, err
		}
		var agg smp.Stats
		t0 := time.Now()
		_, err = multi.MultiProject(ctx, nil, f, smp.WithWorkers(batchWorkers), smp.WithStatsInto(&agg))
		walls = append(walls, float64(time.Since(t0)))
		f.Close()
		sp.end()
		if err != nil {
			return nil, err
		}
		runs = append(runs, agg)
	}
	mid := medianIndex(walls)
	agg := runs[mid]
	m["pipeline.scan_ms"] = ms(agg.ScanDuration)
	m["pipeline.replay_ms"] = ms(agg.ReplayDuration)
	m["pipeline.stage_cover"] = float64(agg.ScanDuration+agg.ReplayDuration) / walls[mid]
	m["pipeline.char_comp_pct"] = agg.CharCompPercent()
	m["pipeline.max_buffer_kib"] = float64(agg.MaxBufferBytes) / 1024

	if err := probeIndex(ctx, tr, parent, in, multi, sample, m); err != nil {
		return nil, err
	}
	return m, nil
}

// medianIndex returns the index of the median value (the upper middle one
// for an even count).
func medianIndex(vs []float64) int {
	idx := make([]int, len(vs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return vs[idx[a]] < vs[idx[b]] })
	return idx[len(idx)/2]
}

// probeKernel times the candidate scan of doc against the union vocabulary
// of the probe's queries and returns the median duration and the number of
// candidates.
func probeKernel(in probeInput, doc []byte) (time.Duration, int, error) {
	schema, err := dtd.Parse(in.dtd)
	if err != nil {
		return 0, 0, err
	}
	plans := make([]*core.Plan, len(in.specs))
	for i, spec := range in.specs {
		set, err := paths.ParseSet(spec)
		if err != nil {
			return 0, 0, err
		}
		table, err := compile.Compile(schema, set, compile.Options{})
		if err != nil {
			return 0, 0, err
		}
		plans[i] = core.NewPlan(table, core.Options{})
	}
	sp := core.NewScanPlanUnion(plans)
	sc := sp.NewScanner()
	cands := sc.Scan(nil, doc, 0, len(doc), true) // warm-up: grows the candidate buffer
	reps := probeReps
	if small := int((8 << 20) / max(len(doc), 1)); small > reps {
		reps = min(small, 64) // small documents: enough repetitions to time
	}
	d, err := timeMedian(reps, func() error {
		cands = sc.Scan(cands[:0], doc, 0, len(doc), true)
		return nil
	})
	return d, len(cands), err
}

// probeIndex measures the index layer on the sample document: building and
// encoding a sidecar from the union vocabulary, reading it back, binding it
// (the SHA-256 content check), a bound replay, and the scan a missing
// sidecar falls back to.
func probeIndex(ctx context.Context, tr *tracer, parent int64, in probeInput, multi *smp.MultiPrefilter, sample []byte, m map[string]float64) error {
	sp := tr.begin("BuildIndex", "index", parent, 0, 0)
	var ix *smp.Index
	d, _ := timeMedian(probeReps, func() error {
		ix = multi.BuildIndex(sample)
		return nil
	})
	sp.end()
	m["index.build_ms_per_mib"] = ms(d) / mib(int64(len(sample)))
	enc, err := ix.Encode()
	if err != nil {
		return err
	}
	m["index.sidecar_ratio"] = float64(len(enc)) / float64(len(sample))
	path := filepath.Join(in.dir, "probe"+smp.IndexSidecarExt)
	if err := ix.WriteFile(path); err != nil {
		return err
	}

	sp = tr.begin("ReadIndex", "index", parent, 0, 0)
	d, err = timeMedian(4*probeReps+1, func() error {
		_, err := smp.ReadIndex(path)
		return err
	})
	sp.end()
	if err != nil {
		return err
	}
	m["index.read_us"] = float64(d) / 1e3

	sp = tr.begin("Index.Bind", "index", parent, 0, 0)
	var binds []float64
	for i := 0; i < 4*probeReps+1; i++ {
		loaded, err := smp.ReadIndex(path)
		if err != nil {
			return err
		}
		t0 := time.Now()
		err = loaded.Bind(sample)
		binds = append(binds, float64(time.Since(t0)))
		if err != nil {
			return err
		}
	}
	sp.end()
	m["index.bind_us"] = median(binds) / 1e3

	// Replay and fallback, per query; the median over the queries.
	var replays, scans []float64
	for i, pf := range in.pfs {
		sp := tr.begin("Project WithIndex "+fmt.Sprint(i), "index", parent, 0, 0)
		var st smp.Stats
		d, err := timeMedian(probeReps, func() error {
			var err error
			st, err = pf.Project(ctx, io.Discard, nil, smp.WithIndex(ix))
			return err
		})
		sp.end()
		if err != nil {
			return err
		}
		if st.IndexHits != 1 {
			return fmt.Errorf("probe replay of query %d fell back to scanning", i)
		}
		replays = append(replays, float64(d))

		sp = tr.begin("Project scan fallback "+fmt.Sprint(i), "core", parent, 0, 0)
		d, err = timeMedian(probeReps, func() error {
			f, err := os.Open(in.sample)
			if err != nil {
				return err
			}
			defer f.Close()
			_, err = pf.Project(ctx, io.Discard, f)
			return err
		})
		sp.end()
		if err != nil {
			return err
		}
		scans = append(scans, float64(d))
	}
	m["index.replay_us"] = median(replays) / 1e3
	m["index.scan_fallback_us"] = median(scans) / 1e3
	return nil
}
