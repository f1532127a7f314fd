package compile

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smp/internal/dtd"
	"smp/internal/paths"
	"smp/internal/projection"
	"smp/internal/xmlgen"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestOracleActionConversion checks the one place where the compiler takes
// an action from the relevance analysis: every oracle action converts to
// the compiler action of the same name and order, the order actionFor
// maximizes over.
func TestOracleActionConversion(t *testing.T) {
	oracle := []projection.Action{projection.Skip, projection.CopyTag, projection.CopyTagAttrs, projection.CopySubtree}
	for i, a := range oracle {
		got := Action(a)
		if got.String() != a.String() || got != Action(i) {
			t.Errorf("Action(%v) = %d %q, want %d %q", a, got, got, i, a)
		}
	}
	if got := Action(len(oracle)).String(); got != "unknown" {
		t.Errorf("Action beyond CopySubtree = %q, want unknown", got)
	}
}

// tableCases are the compilations whose tables testdata/tables.golden pins:
// every workload query over the XMark and MEDLINE DTDs and the schemas and
// path sets of this package's tests.
func tableCases() []struct{ name, dtd, spec string } {
	var cases []struct{ name, dtd, spec string }
	for _, q := range xmlgen.XMarkQueries() {
		cases = append(cases, struct{ name, dtd, spec string }{q.ID, xmlgen.XMarkDTD(), q.Paths})
	}
	for _, q := range xmlgen.MedlineQueries() {
		cases = append(cases, struct{ name, dtd, spec string }{q.ID, xmlgen.MedlineDTD(), q.Paths})
	}
	for _, spec := range []string{"/*, /a/b#", "/*, //c#", "/*, //b#", "/*, /a/b#, //b#"} {
		cases = append(cases, struct{ name, dtd, spec string }{"example2 " + spec, example2DTD, spec})
	}
	for _, spec := range []string{"/*, //australia//description#", "/*, /site/regions/australia/item/name#"} {
		cases = append(cases, struct{ name, dtd, spec string }{"fig1 " + spec, fig1DTD, spec})
	}
	return cases
}

// TestTablesUnchanged pins Table.String — the rows of tables A, V, J and T —
// for every case of tableCases. Update with go test ./internal/compile -run
// TablesUnchanged -update.
func TestTablesUnchanged(t *testing.T) {
	var b strings.Builder
	for _, c := range tableCases() {
		table, err := Compile(dtd.MustParse(c.dtd), paths.MustParseSet(c.spec), Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		b.WriteString("== " + c.name + "\n" + table.String())
	}
	got := b.String()

	golden := filepath.Join("testdata", "tables.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gotCases, wantCases := strings.Split(got, "== "), strings.Split(string(want), "== ")
		for i := range gotCases {
			if i >= len(wantCases) || gotCases[i] != wantCases[i] {
				t.Fatalf("compiled tables differ from %s, first at:\n%s", golden, gotCases[i])
			}
		}
		t.Fatalf("compiled tables differ from %s: %d cases, want %d", golden, len(gotCases), len(wantCases))
	}
}
