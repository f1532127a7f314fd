// Command smp is the XML prefiltering CLI: it compiles a DTD and a set of
// projection paths (or a query) into an SMP runtime automaton and projects
// one document.
//
// Examples:
//
//	smp -dtd auction.dtd -paths '/*, //australia//description#' -in site.xml -out projected.xml
//	smp -dtd auction.dtd -query '<q>{//australia//description}</q>' -in site.xml -stats
//	smp -dtd auction.dtd -paths '/*, //item/name#' -in big.xml -out projected.xml -j 4
//	smp -dtd auction.dtd -paths '/*, //item/name#' -in big.xml -index -out projected.xml
//	smp -dtd auction.dtd -paths '/*, //item/name#' -in big.xml -out projected.xml -trace trace.json
//	smp -dtd auction.dtd -paths '/*' -describe
//
// With -j N the document is projected with intra-document parallelism (N
// segment-scan workers, byte-identical output); -j 0 uses every core. With
// -index the document's candidate-index sidecar (<in>.smpidx) is replayed —
// byte-identical output without re-searching for keywords — and is built
// first when missing, corrupt, stale, or built for a different vocabulary. File
// mode (-in plus -out) and stream mode share one code path — the v2
// Project/ProjectFile API with options. With -trace the run's per-stage
// spans (compile, segment scan, candidate replay, output stitch) are written
// as Chrome trace-event JSON, loadable in Perfetto. SIGINT/SIGTERM cancel the run's
// context, so an interrupted projection exits promptly; a projection that
// fails or is interrupted mid-stream removes its partial -out file and
// exits non-zero.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"smp"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "smp:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("smp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dtdPath   = fs.String("dtd", "", "path to the DTD file (required)")
		pathSpec  = fs.String("paths", "", "comma-separated projection paths, e.g. '/*, //item/name#'")
		query     = fs.String("query", "", "XQuery/XPath expression to extract projection paths from (alternative to -paths)")
		inPath    = fs.String("in", "", "input XML document (default: stdin)")
		outPath   = fs.String("out", "", "output file for the projected document (default: stdout)")
		showStats = fs.Bool("stats", false, "print runtime statistics to stderr")
		describe  = fs.Bool("describe", false, "print the compiled lookup tables instead of projecting")
		chunk     = fs.Int("chunk", 0, "streaming window chunk size in bytes (0 = default)")
		jobs      = fs.Int("j", 1, "intra-document parallel scan workers (1 = serial, 0 = all cores)")
		useIndex  = fs.Bool("index", false, "use the document's candidate-index sidecar (<in>.smpidx), building it first when missing, stale, or uncovering (requires -in)")
		tracePath = fs.String("trace", "", "write per-stage Chrome trace-event JSON to this file (open in Perfetto or chrome://tracing)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dtdPath == "" {
		return fmt.Errorf("-dtd is required")
	}
	if (*pathSpec == "") == (*query == "") {
		return fmt.Errorf("exactly one of -paths and -query must be given")
	}
	dtdSrc, err := os.ReadFile(*dtdPath)
	if err != nil {
		return err
	}

	var pf *smp.Prefilter
	if *pathSpec != "" {
		pf, err = smp.Compile(string(dtdSrc), *pathSpec, smp.Options{})
	} else {
		pf, err = smp.CompileQuery(string(dtdSrc), *query, smp.Options{})
	}
	if err != nil {
		return err
	}

	if *describe {
		fmt.Fprintf(stdout, "projection paths: %v\n\n%s", pf.Paths(), pf.DescribeTables())
		return nil
	}

	runOpts := []smp.ProjectOption{smp.WithChunkSize(*chunk)}
	switch {
	case *jobs == 0:
		runOpts = append(runOpts, smp.WithAutoWorkers())
	case *jobs > 1:
		runOpts = append(runOpts, smp.WithWorkers(*jobs))
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		defer func() {
			if closeErr := f.Close(); closeErr != nil {
				fmt.Fprintf(stderr, "smp: closing trace file: %v\n", closeErr)
			}
		}()
		runOpts = append(runOpts, smp.WithTrace(f))
	}

	if *useIndex {
		// Index mode: load the document's sidecar and replay it; build (or
		// rebuild) the sidecar first when it is missing, corrupt, stale
		// against the current bytes, or does not cover this vocabulary.
		if *inPath == "" {
			return fmt.Errorf("-index requires -in")
		}
		doc, err := os.ReadFile(*inPath)
		if err != nil {
			return err
		}
		side := smp.IndexSidecarPath(*inPath)
		ix, readErr := smp.ReadIndex(side)
		if readErr != nil || ix.Bind(doc) != nil || !pf.IndexCovers(ix) {
			ix = pf.BuildIndex(doc)
			if err := ix.WriteFile(side); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "built index sidecar %s (%d candidates)\n", side, len(ix.Candidates()))
		}
		runOpts = append(runOpts, smp.WithIndex(ix))
	}

	var stats smp.Stats
	if *useIndex {
		// The index is bound to the in-memory document: nothing is read from
		// -in again. Output handling matches the stream path below.
		out := stdout
		var outFile *os.File
		if *outPath != "" {
			f, err := os.Create(*outPath)
			if err != nil {
				return err
			}
			outFile = f
			out = f
		}
		stats, err = pf.Project(ctx, out, nil, runOpts...)
		if outFile != nil {
			if closeErr := outFile.Close(); err == nil {
				err = closeErr
			}
			if err != nil {
				os.Remove(*outPath)
			}
		}
	} else if *inPath != "" && *outPath != "" {
		// File mode: ProjectFile shares the streaming code path and removes
		// the partial output file if the run fails or is interrupted.
		stats, err = pf.ProjectFile(ctx, *inPath, *outPath, runOpts...)
	} else {
		in := io.Reader(os.Stdin)
		if *inPath != "" {
			f, err := os.Open(*inPath)
			if err != nil {
				return err
			}
			defer f.Close()
			in = f
		}
		out := stdout
		var outFile *os.File
		if *outPath != "" {
			f, err := os.Create(*outPath)
			if err != nil {
				return err
			}
			outFile = f
			out = f
		}
		stats, err = pf.Project(ctx, out, in, runOpts...)
		if outFile != nil {
			if closeErr := outFile.Close(); err == nil {
				err = closeErr
			}
			if err != nil {
				// Never leave a truncated projection behind: remove the partial
				// output so a failed run is distinguishable from an empty one.
				os.Remove(*outPath)
			}
		}
	}
	if err != nil {
		return err
	}
	if *showStats {
		fmt.Fprintf(stderr, "read %d bytes, wrote %d bytes (%.1f%%)\n",
			stats.BytesRead, stats.BytesWritten, 100*stats.OutputRatio())
		cs := pf.CompileStats()
		fmt.Fprintf(stderr, "states %d (%d CW + %d BM), characters inspected %.2f%%, rejected matches %d\n",
			stats.States, cs.CWStates, cs.BMStates,
			stats.CharCompPercent(), stats.RejectedMatches)
		if stats.IndexHits+stats.IndexSkips > 0 {
			fmt.Fprintf(stderr, "index: hits %d, skips %d, summary skips %d\n",
				stats.IndexHits, stats.IndexSkips, stats.IndexSummarySkips)
		}
		if stats.ScanDuration > 0 || stats.ReplayDuration > 0 {
			fmt.Fprintf(stderr, "stages: scan %s, replay %s\n",
				stats.ScanDuration.Round(time.Microsecond),
				stats.ReplayDuration.Round(time.Microsecond))
		}
	}
	return nil
}
