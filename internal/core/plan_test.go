package core

import (
	"bytes"
	"context"
	"io"
	"testing"

	"smp/internal/compile"
	"smp/internal/dtd"
	"smp/internal/paths"
	"smp/internal/xmlgen"
)

// TestNewFromPlanSharesTables checks the invariant of the Plan layer:
// prefilters built from one plan share its automaton, interned strings and
// the Fig. 4 engine's matcher tables (pointer-identical plan), and still
// project correctly.
func TestNewFromPlanSharesTables(t *testing.T) {
	table, err := compile.Compile(dtd.MustParse(fig1DTD), paths.MustParseSet("/*, //australia//description#"), compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan := NewPlan(table, Options{})
	if plan.search != nil {
		t.Fatal("NewPlan built the Fig. 4 engine's search tables")
	}
	p1 := NewFromPlan(plan)
	p2 := NewFromPlan(plan)
	if p1.Plan() != p2.Plan() {
		t.Fatal("NewFromPlan did not share the plan")
	}

	want, _, err := New(table, Options{}).ProjectBytes(context.Background(), []byte(paperFig2Document))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range []*Prefilter{p1, p2} {
		got, _, err := p.ProjectBytes(context.Background(), []byte(paperFig2Document))
		if err != nil {
			t.Fatalf("prefilter %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("prefilter %d: projection differs from the freshly compiled plan", i)
		}
	}

	ps := plan.Stats()
	if ps.States != table.Stats.States {
		t.Errorf("PlanStats.States = %d, want %d", ps.States, table.Stats.States)
	}
	if got, want := plan.search.built, table.Stats.BMStates+table.Stats.CWStates; got != want {
		t.Errorf("search tables hold %d matchers, want %d", got, want)
	}
	if ps.TableBytes <= 0 || ps.MemBytes <= ps.TableBytes {
		t.Errorf("PlanStats footprint inconsistent: %+v", ps)
	}
	if ps.TagStrings == 0 {
		t.Errorf("PlanStats.TagStrings = 0, want interned labels")
	}
}

// TestSteadyStateAllocationsBufferOnly drives two prefilters — one with a
// small compiled table, one with a much larger vocabulary — and checks that
// steady-state per-run allocations do not grow with the table size: the
// tables live in the shared plan, so a run allocates only buffers.
func TestSteadyStateAllocationsBufferOnly(t *testing.T) {
	schema := dtd.MustParse(xmlgen.XMarkDTD())
	doc := xmlgen.XMarkBytes(xmlgen.Config{TargetSize: 64 << 10, Seed: 5})

	build := func(pathSpec string) *Prefilter {
		table, err := compile.Compile(schema, paths.MustParseSet(pathSpec), compile.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return New(table, Options{})
	}
	small := build("/*")
	q, _ := xmlgen.QueryByID("XM13") // multi-keyword states, larger tables
	large := build(q.Paths)
	if large.PlanStats().MemBytes <= small.PlanStats().MemBytes {
		t.Fatalf("fixture: large plan (%d B) not larger than small plan (%d B)",
			large.PlanStats().MemBytes, small.PlanStats().MemBytes)
	}

	steady := func(p *Prefilter) float64 {
		// Warm the pool (grows the window buffer once).
		for i := 0; i < 3; i++ {
			if _, err := p.Project(context.Background(), io.Discard, bytes.NewReader(doc)); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := p.Project(context.Background(), io.Discard, bytes.NewReader(doc)); err != nil {
				t.Fatal(err)
			}
		})
	}
	smallAllocs := steady(small)
	largeAllocs := steady(large)
	if largeAllocs > smallAllocs+8 {
		t.Errorf("steady-state allocations grew with table size: small=%.1f large=%.1f", smallAllocs, largeAllocs)
	}
	if largeAllocs > 32 {
		t.Errorf("steady-state allocations = %.1f per run, want buffer-only (a handful)", largeAllocs)
	}
}
