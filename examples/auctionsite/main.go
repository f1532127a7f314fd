// Command auctionsite runs the XMark auction-site workload the paper's
// introduction motivates: it generates a synthetic auction document, takes a
// handful of the XMark benchmark queries (the workload of Table I), and
// shows how much of the document each query actually needs after SMP
// prefiltering — the reason an in-memory query engine behind the prefilter
// scales to documents it could never load in full.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"

	"smp"
)

func main() {
	size := flag.Int64("size", 4<<20, "size of the generated auction document in bytes")
	flag.Parse()

	fmt.Printf("generating a %d-byte XMark-like auction document...\n", *size)
	doc, err := smp.GenerateBytes(smp.XMark, *size, 1)
	if err != nil {
		log.Fatal(err)
	}
	dtdSrc, err := smp.DatasetDTD(smp.XMark)
	if err != nil {
		log.Fatal(err)
	}

	queries, err := smp.BenchmarkQueries(smp.XMark)
	if err != nil {
		log.Fatal(err)
	}
	selected := map[string]bool{"XM1": true, "XM6": true, "XM13": true, "XM14": true, "XM20": true}

	fmt.Printf("\n%-6s %12s %10s %12s %12s  %s\n",
		"query", "output", "kept", "inspected", "rejected", "description")
	for _, q := range queries {
		if !selected[q.ID] {
			continue
		}
		pf, err := smp.Compile(dtdSrc, q.Paths, smp.Options{})
		if err != nil {
			log.Fatalf("%s: %v", q.ID, err)
		}
		var out bytes.Buffer
		stats, err := pf.Project(context.Background(), &out, bytes.NewReader(doc))
		if err != nil {
			log.Fatalf("%s: %v", q.ID, err)
		}
		fmt.Printf("%-6s %11dB %9.1f%% %11.1f%% %12d  %s\n",
			q.ID, out.Len(), 100*stats.OutputRatio(), stats.CharCompPercent(),
			stats.RejectedMatches, q.Description)
	}

	fmt.Println("\nA downstream XQuery engine only has to load the projected output —")
	fmt.Println("for most queries a few percent of the original document.")
}
