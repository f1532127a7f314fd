package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smp/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenColumns are the columns of Tables I and II that depend only on the
// document, the query and the engine: everything but the Compile and Run
// timings.
var goldenColumns = []string{
	"Query", "Proj. Size", "Output %", "Mem", "States (CW+BM)",
	"Ø Shift [char]", "Initial Jumps [%]", "Char Comp. [%]",
}

// TestTablesGolden pins the paper reproduction: the deterministic columns
// of Tables I and II at smallCfg must not move when code outside the Fig. 4
// engine changes. Update with go test ./internal/experiments -run Golden
// -update.
func TestTablesGolden(t *testing.T) {
	var b strings.Builder
	for _, build := range []func(Config) (*stats.Table, error){TableI, TableII} {
		tbl, err := build(smallCfg())
		if err != nil {
			t.Fatal(err)
		}
		cols := make([]int, len(goldenColumns))
		for i, name := range goldenColumns {
			cols[i] = columnIndex(t, tbl, name)
		}
		pinned := stats.NewTable(tbl.Title, goldenColumns...)
		for _, row := range tbl.Rows {
			cells := make([]string, len(cols))
			for i, c := range cols {
				cells[i] = row[c]
			}
			pinned.AddRow(cells...)
		}
		b.WriteString(pinned.String())
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
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("Tables I/II differ from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
