// Command quickstart reproduces the paper's running example (Example 1):
// prefiltering the auction document of Fig. 2 for the XQuery
// <q>{//australia//description}</q>. It shows the two ways to build a
// prefilter (explicit projection paths or automatic extraction from a
// query), runs both over the document and prints the projection together
// with the runtime statistics.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"strings"

	"smp"
)

// The simplified XMark DTD of paper Fig. 1.
const auctionDTD = `<!DOCTYPE site [
<!ELEMENT site (regions)>
<!ELEMENT regions (africa, asia, australia)>
<!ELEMENT africa (item*)>
<!ELEMENT asia (item*)>
<!ELEMENT australia (item*)>
<!ELEMENT item (location,name,payment,description,shipping,incategory+)>
<!ELEMENT incategory EMPTY>
<!ATTLIST incategory category ID #REQUIRED>
<!ELEMENT location (#PCDATA)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT payment (#PCDATA)>
<!ELEMENT description (#PCDATA)>
<!ELEMENT shipping (#PCDATA)>
]>`

// The document of paper Fig. 2.
const document = `<site><regions><africa><item><location>United States</location><name>T V</name><payment>Creditcard</payment><description>15''LCD-FlatPanel</description><shipping>Within country</shipping><incategory category="3"/></item></africa><asia/><australia><item ><location>Egypt</location><name>PDA</name><payment>Check</payment><description>Palm Zire 71</description><shipping/><incategory category="3"/></item></australia></regions></site>`

func main() {
	// Variant 1: give the projection paths explicitly.
	pf, err := smp.Compile(auctionDTD, "/*, //australia//description#", smp.Options{})
	if err != nil {
		log.Fatal(err)
	}
	var out bytes.Buffer
	stats, err := pf.Project(context.Background(), &out, strings.NewReader(document))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== projection for paths /*, //australia//description# ==")
	fmt.Println(out.String())
	fmt.Printf("\ninput %d bytes -> output %d bytes (%.1f%% kept)\n",
		stats.BytesRead, stats.BytesWritten, 100*stats.OutputRatio())
	fmt.Printf("characters inspected: %.1f%% of the input (paper Example 1 reports ~22%%)\n",
		stats.CharCompPercent())
	cs := pf.CompileStats()
	fmt.Printf("runtime automaton: %d states (%d Commentz-Walter + %d Boyer-Moore)\n\n",
		stats.States, cs.CWStates, cs.BMStates)

	// Variant 2: extract the paths from the query text.
	queryPF, err := smp.CompileQuery(auctionDTD, "<q>{//australia//description}</q>", smp.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== paths extracted from <q>{//australia//description}</q> ==")
	for _, p := range queryPF.Paths() {
		fmt.Println("  ", p)
	}
	var out2 bytes.Buffer
	if _, err := queryPF.Project(context.Background(), &out2, strings.NewReader(document)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsame projection: %v\n", out2.String() == out.String())

	// The compiled lookup tables A, V, J, T (paper Fig. 3) can be inspected.
	fmt.Println("\n== compiled lookup tables ==")
	fmt.Print(pf.DescribeTables())
}
