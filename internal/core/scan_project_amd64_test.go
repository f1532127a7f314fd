//go:build amd64 && !purego

package core_test

import (
	"bytes"
	"context"
	"io"
	"testing"

	"smp/internal/compile"
	"smp/internal/core"
	"smp/internal/dtd"
	"smp/internal/paths"
	"smp/internal/pipeline"
	"smp/internal/xmlgen"
)

// TestProjectAVX2MatchesSWAR projects the 18 XMark and 5 MEDLINE queries
// through the production pipeline twice, once with each kernel behind Scan,
// and requires byte-identical output and identical counters: the AVX2
// filter drops only anchors whose bucket the SWAR kernel finds empty, so
// CharComparisons, BytesScanned and RejectedMatches cannot tell the kernels
// apart.
func TestProjectAVX2MatchesSWAR(t *testing.T) {
	if core.ScanKernel() != "avx2" {
		t.Skipf("Scan runs the %s kernel on this CPU", core.ScanKernel())
	}
	size := int64(2 << 20)
	if testing.Short() {
		size = 512 << 10
	}
	datasets := []struct {
		dtd     string
		doc     []byte
		queries []xmlgen.Query
	}{
		{xmlgen.XMarkDTD(), xmlgen.XMarkBytes(xmlgen.Config{TargetSize: size, Seed: 3}), xmlgen.XMarkQueries()},
		{xmlgen.MedlineDTD(), xmlgen.MedlineBytes(xmlgen.Config{TargetSize: size, Seed: 3}), xmlgen.MedlineQueries()},
	}
	for _, ds := range datasets {
		schema := dtd.MustParse(ds.dtd)
		for _, q := range ds.queries {
			table, err := compile.Compile(schema, paths.MustParseSet(q.Paths), compile.Options{})
			if err != nil {
				t.Fatalf("%s: %v", q.ID, err)
			}
			eng := pipeline.New([]*core.Plan{core.NewPlan(table, core.Options{})})
			project := func() ([]byte, core.Stats) {
				var out bytes.Buffer
				res, err := eng.ProjectBuffered(context.Background(), []io.Writer{&out}, ds.doc, pipeline.Options{})
				if err != nil {
					t.Fatalf("%s: %v", q.ID, err)
				}
				st := res.Aggregate()
				st.ScanDuration, st.ReplayDuration, st.StitchDuration = 0, 0, 0
				return out.Bytes(), st
			}
			avx2Out, avx2Stats := project()
			restore := core.UseSWARKernel()
			swarOut, swarStats := project()
			restore()
			if !bytes.Equal(avx2Out, swarOut) {
				t.Fatalf("%s: AVX2 and SWAR projections differ (%d vs %d bytes)", q.ID, len(avx2Out), len(swarOut))
			}
			if avx2Stats != swarStats {
				t.Fatalf("%s: counters differ\navx2: %+v\nswar: %+v", q.ID, avx2Stats, swarStats)
			}
			if avx2Stats.BytesScanned == 0 || avx2Stats.CharComparisons == 0 {
				t.Fatalf("%s: no scan counted: %+v", q.ID, avx2Stats)
			}
		}
	}
}
