package experiments

import (
	"fmt"

	"smp/internal/compile"
	"smp/internal/core"
	"smp/internal/fig4"
	"smp/internal/stats"
	"smp/internal/xmlgen"
)

// This file implements the ablation studies listed in DESIGN.md: they
// quantify the individual design choices of the paper (skip-based matching,
// XML-specific initial jumps, the exact Boyer-Moore variant, and the
// streaming chunk size).

// AblationAlgorithms compares the paper's Boyer-Moore/Commentz-Walter
// configuration against alternatives that inspect more characters
// (Aho-Corasick, set-Horspool, naive search).
func AblationAlgorithms(cfg Config) (*stats.Table, error) {
	cfg = cfg.withDefaults()
	w := xmarkWorkload(cfg)
	q, _ := xmlgen.QueryByID("XM13")

	configs := []struct {
		name string
		opts fig4.Options
	}{
		{"BM + CW (paper)", fig4.Options{Single: fig4.SingleBoyerMoore, Multi: fig4.MultiCommentzWalter}},
		{"Horspool + SetHorspool", fig4.Options{Single: fig4.SingleHorspool, Multi: fig4.MultiSetHorspool}},
		{"BM + Aho-Corasick", fig4.Options{Single: fig4.SingleBoyerMoore, Multi: fig4.MultiAhoCorasick}},
		{"Naive + Naive", fig4.Options{Single: fig4.SingleNaive, Multi: fig4.MultiNaive}},
	}
	t := stats.NewTable(
		fmt.Sprintf("Ablation — string matching algorithms (query %s, %s XMark-like document)",
			q.ID, stats.FormatBytes(int64(len(w.doc)))),
		"Configuration", "Time", "Char Comp. [%]", "Ø Shift [char]", "Throughput MB/s")
	for _, c := range configs {
		res, err := runOne(w, q, compile.Options{}, core.Options{}, c.opts)
		if err != nil {
			return nil, err
		}
		st := res.Stats
		t.AddRow(c.name,
			stats.FormatDuration(res.Run),
			stats.FormatFloat(st.CharCompPercent()),
			stats.FormatFloat(st.AvgShift()),
			stats.FormatFloat(stats.ThroughputMBps(int64(len(w.doc)), res.Run)))
	}
	t.AddNote("%s", "expected shape: the skip-based BM/CW configuration inspects the smallest fraction of characters; Aho-Corasick and naive search touch (nearly) every character")
	return t, nil
}

// AblationInitialJumps isolates the contribution of the XML-specific initial
// jump offsets (table J) by running the XMark workload with jumps enabled
// and disabled.
func AblationInitialJumps(cfg Config) (*stats.Table, error) {
	cfg = cfg.withDefaults()
	w := xmarkWorkload(cfg)
	t := stats.NewTable(
		fmt.Sprintf("Ablation — initial jump offsets on/off (%s XMark-like document)", stats.FormatBytes(int64(len(w.doc)))),
		"Query", "Char Comp. with J [%]", "Char Comp. without J [%]", "Initial Jumps [%]")
	for _, q := range w.queries {
		if !cfg.wantQuery(q.ID) {
			continue
		}
		withJ, err := runOne(w, q, compile.Options{}, core.Options{}, fig4.Options{})
		if err != nil {
			return nil, err
		}
		withoutJ, err := runOne(w, q, compile.Options{DisableInitialJumps: true}, core.Options{}, fig4.Options{})
		if err != nil {
			return nil, err
		}
		t.AddRow(q.ID,
			stats.FormatFloat(withJ.Stats.CharCompPercent()),
			stats.FormatFloat(withoutJ.Stats.CharCompPercent()),
			stats.FormatFloat(withJ.Stats.InitialJumpPercent()))
	}
	t.AddNote("%s", "paper: initial jumps alone skip 0.1-2.6% of XMark data and up to 7.6% of MEDLINE data — a small but free gain on top of the string-matching shifts")
	return t, nil
}

// AblationChunkSize varies the streaming window chunk (the paper uses eight
// times the system page size).
func AblationChunkSize(cfg Config) (*stats.Table, error) {
	cfg = cfg.withDefaults()
	w := xmarkWorkload(cfg)
	q, _ := xmlgen.QueryByID("XM14")
	t := stats.NewTable(
		fmt.Sprintf("Ablation — streaming chunk size (query %s, %s XMark-like document)",
			q.ID, stats.FormatBytes(int64(len(w.doc)))),
		"Chunk", "Time", "Window high-water mark", "Throughput MB/s")
	for _, chunk := range []int{4 << 10, 8 << 10, 32 << 10, 128 << 10, 512 << 10} {
		res, err := runOne(w, q, compile.Options{}, core.Options{ChunkSize: chunk}, fig4.Options{})
		if err != nil {
			return nil, err
		}
		t.AddRow(stats.FormatBytes(int64(chunk)),
			stats.FormatDuration(res.Run),
			stats.FormatBytes(res.Stats.MaxBufferBytes),
			stats.FormatFloat(stats.ThroughputMBps(int64(len(w.doc)), res.Run)))
	}
	t.AddNote("%s", "expected shape: throughput is largely insensitive to the chunk size once it exceeds a few KiB; memory grows with the chunk")
	return t, nil
}

// Experiment names accepted by Run and the smpbench CLI.
const (
	ExpTableI    = "table1"
	ExpTableII   = "table2"
	ExpTableIII  = "table3"
	ExpFig7a     = "fig7a"
	ExpFig7b     = "fig7b"
	ExpFig7c     = "fig7c"
	ExpAblations = "ablations"
	ExpAll       = "all"
)

// Names lists the individual experiment identifiers in presentation order.
func Names() []string {
	return []string{ExpTableI, ExpTableII, ExpTableIII, ExpFig7a, ExpFig7b, ExpFig7c, ExpAblations}
}

// Run executes the named experiment ("all" runs every one) and returns the
// resulting tables.
func Run(name string, cfg Config) ([]*stats.Table, error) {
	switch name {
	case ExpTableI:
		return one(TableI(cfg))
	case ExpTableII:
		return one(TableII(cfg))
	case ExpTableIII:
		return one(TableIII(cfg))
	case ExpFig7a:
		return one(Fig7a(cfg))
	case ExpFig7b:
		return one(Fig7b(cfg))
	case ExpFig7c:
		return one(Fig7c(cfg))
	case ExpAblations:
		var out []*stats.Table
		for _, f := range []func(Config) (*stats.Table, error){AblationAlgorithms, AblationInitialJumps, AblationChunkSize} {
			t, err := f(cfg)
			if err != nil {
				return nil, err
			}
			out = append(out, t)
		}
		return out, nil
	case ExpAll:
		var out []*stats.Table
		for _, n := range Names() {
			tables, err := Run(n, cfg)
			if err != nil {
				return nil, err
			}
			out = append(out, tables...)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("experiments: unknown experiment %q (want one of %v or %q)", name, Names(), ExpAll)
	}
}

func one(t *stats.Table, err error) ([]*stats.Table, error) {
	if err != nil {
		return nil, err
	}
	return []*stats.Table{t}, nil
}
