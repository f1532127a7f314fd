package core_test

import (
	"bytes"
	"context"
	"io"
	"testing"

	"smp/internal/compile"
	"smp/internal/core"
	"smp/internal/dtd"
	"smp/internal/fig4"
	"smp/internal/paths"
	"smp/internal/testutil"
	"smp/internal/xmlgen"
)

// TestNewFromPlanSharesTables checks the invariant of the Plan layer:
// Fig. 4 prefilters built from one plan share its automaton and interned
// strings (pointer-identical plan), each runs one matcher per state with a
// vocabulary, and both still project correctly.
func TestNewFromPlanSharesTables(t *testing.T) {
	table, err := compile.Compile(dtd.MustParse(testutil.Fig1DTD), paths.MustParseSet("/*, //australia//description#"), compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan := core.NewPlan(table, core.Options{})
	p1 := fig4.New(plan, fig4.Options{})
	p2 := fig4.New(plan, fig4.Options{})
	if p1.Plan() != plan || p2.Plan() != plan {
		t.Fatal("fig4.New did not share the plan")
	}

	want, _, err := newEngine(table, core.Options{}, fig4.Options{}).ProjectBytes(context.Background(), []byte(paperFig2Document))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range []*fig4.Prefilter{p1, p2} {
		got, st, err := p.ProjectBytes(context.Background(), []byte(paperFig2Document))
		if err != nil {
			t.Fatalf("prefilter %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("prefilter %d: projection differs from the freshly compiled plan", i)
		}
		if got, want := st.MatchersBuilt, table.Stats.BMStates+table.Stats.CWStates; got != want {
			t.Errorf("prefilter %d: search tables hold %d matchers, want %d", i, got, want)
		}
	}

	ps := plan.Stats()
	if ps.States != table.Stats.States {
		t.Errorf("PlanStats.States = %d, want %d", ps.States, table.Stats.States)
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

	build := func(pathSpec string) *fig4.Prefilter {
		table, err := compile.Compile(schema, paths.MustParseSet(pathSpec), compile.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return newEngine(table, core.Options{}, fig4.Options{})
	}
	small := build("/*")
	q, _ := xmlgen.QueryByID("XM13") // multi-keyword states, larger tables
	large := build(q.Paths)
	if large.Plan().Stats().MemBytes <= small.Plan().Stats().MemBytes {
		t.Fatalf("fixture: large plan (%d B) not larger than small plan (%d B)",
			large.Plan().Stats().MemBytes, small.Plan().Stats().MemBytes)
	}

	steady := func(p *fig4.Prefilter) float64 {
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
