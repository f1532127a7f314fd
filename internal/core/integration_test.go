package core_test

import (
	"context"
	"testing"

	"smp/internal/compile"
	"smp/internal/core"
	"smp/internal/dtd"
	"smp/internal/fig4"
	"smp/internal/paths"
	"smp/internal/projection"
	"smp/internal/xmlgen"
)

// TestXMarkWorkloadMatchesOracle runs the full XMark query workload of
// Table I over a generated XMark-like document and cross-checks the
// skip-based runtime against the tokenizing reference projector. This is the
// repository's primary end-to-end correctness check.
func TestXMarkWorkloadMatchesOracle(t *testing.T) {
	doc := xmlgen.XMarkBytes(xmlgen.Config{TargetSize: 300_000, Seed: 11})
	schema := dtd.MustParse(xmlgen.XMarkDTD())
	runWorkloadAgainstOracle(t, schema, doc, xmlgen.XMarkQueries())
}

// TestMedlineWorkloadMatchesOracle does the same for the MEDLINE workload of
// Table II.
func TestMedlineWorkloadMatchesOracle(t *testing.T) {
	doc := xmlgen.MedlineBytes(xmlgen.Config{TargetSize: 300_000, Seed: 11})
	schema := dtd.MustParse(xmlgen.MedlineDTD())
	runWorkloadAgainstOracle(t, schema, doc, xmlgen.MedlineQueries())
}

func runWorkloadAgainstOracle(t *testing.T, schema *dtd.DTD, doc []byte, queries []xmlgen.Query) {
	t.Helper()
	for _, q := range queries {
		q := q
		t.Run(q.ID, func(t *testing.T) {
			set := paths.MustParseSet(q.Paths)
			table, err := compile.Compile(schema, set, compile.Options{})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			smpOut, stats, err := newEngine(table, core.Options{}, fig4.Options{}).ProjectBytes(context.Background(), doc)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			oracleOut, _, err := projection.New(set, projection.Options{}).ProjectBytes(doc)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			eq, err := projection.Equal(smpOut, oracleOut)
			if err != nil {
				t.Fatalf("compare: %v", err)
			}
			if !eq {
				d, _ := projection.Diff(smpOut, oracleOut)
				t.Fatalf("SMP and oracle disagree for %s:\n%s", q.ID, d)
			}
			if stats.CharComparisons >= int64(len(doc)) {
				t.Errorf("%s: inspected %d of %d characters — no skipping happened",
					q.ID, stats.CharComparisons, len(doc))
			}
			if int64(len(smpOut)) >= int64(len(doc)) {
				t.Errorf("%s: projection (%d bytes) is not smaller than the input (%d bytes)",
					q.ID, len(smpOut), len(doc))
			}
		})
	}
}

// TestXMarkWorkloadSmallChunks repeats a subset of the workload with a tiny
// streaming window to exercise boundary-spanning keywords and incremental
// copy flushes on realistic data.
func TestXMarkWorkloadSmallChunks(t *testing.T) {
	doc := xmlgen.XMarkBytes(xmlgen.Config{TargetSize: 120_000, Seed: 5})
	schema := dtd.MustParse(xmlgen.XMarkDTD())
	for _, id := range []string{"XM1", "XM6", "XM13", "XM14"} {
		q, ok := xmlgen.QueryByID(id)
		if !ok {
			t.Fatalf("unknown query %s", id)
		}
		set := paths.MustParseSet(q.Paths)
		table, err := compile.Compile(schema, set, compile.Options{})
		if err != nil {
			t.Fatalf("%s: compile: %v", id, err)
		}
		wide, _, err := newEngine(table, core.Options{}, fig4.Options{}).ProjectBytes(context.Background(), doc)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		narrow, _, err := newEngine(table, core.Options{ChunkSize: 128}, fig4.Options{}).ProjectBytes(context.Background(), doc)
		if err != nil {
			t.Fatalf("%s (chunk 128): %v", id, err)
		}
		if string(wide) != string(narrow) {
			t.Errorf("%s: output depends on the chunk size", id)
		}
	}
}
