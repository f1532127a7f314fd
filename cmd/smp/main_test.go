package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const testDTD = `<!DOCTYPE site [
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

const testDoc = `<site><regions><africa><item><location>US</location><name>TV</name><payment>Cash</payment><description>flat</description><shipping>yes</shipping><incategory category="1"/></item></africa><asia/><australia><item><location>Egypt</location><name>PDA</name><payment>Check</payment><description>Palm</description><shipping>no</shipping><incategory category="2"/></item></australia></regions></site>`

func writeFiles(t *testing.T) (dtdPath, docPath, dir string) {
	t.Helper()
	dir = t.TempDir()
	dtdPath = filepath.Join(dir, "site.dtd")
	docPath = filepath.Join(dir, "site.xml")
	if err := os.WriteFile(dtdPath, []byte(testDTD), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(docPath, []byte(testDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	return dtdPath, docPath, dir
}

func TestRunProjectsWithPaths(t *testing.T) {
	dtdPath, docPath, dir := writeFiles(t)
	outPath := filepath.Join(dir, "out.xml")
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-dtd", dtdPath,
		"-paths", "/*, //australia//description#",
		"-in", docPath,
		"-out", outPath,
		"-stats",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	want := `<site><australia><description>Palm</description></australia></site>`
	if string(data) != want {
		t.Errorf("output = %q, want %q", data, want)
	}
	if !strings.Contains(stderr.String(), "characters inspected") {
		t.Errorf("stats output missing: %q", stderr.String())
	}
	// The static split of the states comes from the compile statistics: 2
	// states search several keywords (Commentz-Walter), 4 one (Boyer-Moore).
	// The scan verifies only anchors whose first two tagname bytes start a
	// keyword, so it inspects 26.97% of the document.
	if !strings.Contains(stderr.String(), "states 7 (2 CW + 4 BM), characters inspected 26.97%, rejected matches 0\n") {
		t.Errorf("stats line changed: %q", stderr.String())
	}
}

func TestRunProjectsWithQueryToStdout(t *testing.T) {
	dtdPath, docPath, _ := writeFiles(t)
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-dtd", dtdPath,
		"-query", "<q>{//australia//description}</q>",
		"-in", docPath,
	}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "<description>Palm</description>") {
		t.Errorf("stdout = %q", stdout.String())
	}
}

func TestRunIndexBuildsAndReplaysSidecar(t *testing.T) {
	dtdPath, docPath, dir := writeFiles(t)
	want := `<site><australia><description>Palm</description></australia></site>`
	args := func(out string) []string {
		return []string{
			"-dtd", dtdPath,
			"-paths", "/*, //australia//description#",
			"-in", docPath,
			"-out", out,
			"-index", "-stats",
		}
	}

	// First run: no sidecar yet — it is built, persisted, and replayed.
	out1 := filepath.Join(dir, "out1.xml")
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), args(out1), &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "built index sidecar") {
		t.Errorf("first run did not report building the sidecar: %q", stderr.String())
	}
	if _, err := os.Stat(docPath + ".smpidx"); err != nil {
		t.Fatalf("sidecar not persisted: %v", err)
	}

	// Second run: the sidecar is loaded and replayed, not rebuilt.
	out2 := filepath.Join(dir, "out2.xml")
	stderr.Reset()
	if err := run(context.Background(), args(out2), &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(stderr.String(), "built index sidecar") {
		t.Errorf("second run rebuilt the sidecar: %q", stderr.String())
	}
	if !strings.Contains(stderr.String(), "index: hits 1") {
		t.Errorf("second run stats missing index hit: %q", stderr.String())
	}
	for _, out := range []string{out1, out2} {
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != want {
			t.Errorf("%s = %q, want %q", out, data, want)
		}
	}

	// Mutate the document: the stale sidecar is rebuilt, output follows the
	// new bytes.
	mutated := strings.Replace(testDoc, "Palm", "Pilot", 1)
	if err := os.WriteFile(docPath, []byte(mutated), 0o644); err != nil {
		t.Fatal(err)
	}
	out3 := filepath.Join(dir, "out3.xml")
	stderr.Reset()
	if err := run(context.Background(), args(out3), &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "built index sidecar") {
		t.Errorf("stale run did not rebuild the sidecar: %q", stderr.String())
	}
	data, err := os.ReadFile(out3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Pilot") {
		t.Errorf("stale rebuild projected %q, want mutated content", data)
	}
}

func TestRunIndexRequiresIn(t *testing.T) {
	dtdPath, _, _ := writeFiles(t)
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"-dtd", dtdPath, "-paths", "/*", "-index"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "-index requires -in") {
		t.Fatalf("err = %v, want -index requires -in", err)
	}
}

func TestRunDescribe(t *testing.T) {
	dtdPath, _, _ := writeFiles(t)
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"-dtd", dtdPath, "-paths", "/*, //australia#", "-describe"}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"projection paths", "V:", "J:", "T:"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("describe output missing %q", want)
		}
	}
}

func TestRunArgumentErrors(t *testing.T) {
	dtdPath, docPath, _ := writeFiles(t)
	cases := [][]string{
		{},                // missing -dtd
		{"-dtd", dtdPath}, // neither -paths nor -query
		{"-dtd", dtdPath, "-paths", "/*", "-query", "<q>{/a}</q>"}, // both
		{"-dtd", "/does/not/exist.dtd", "-paths", "/*"},
		{"-dtd", dtdPath, "-paths", "bad path"},
		{"-dtd", dtdPath, "-paths", "/*", "-in", "/does/not/exist.xml"},
		{"-dtd", dtdPath, "-paths", "/*", "-in", docPath, "-out", "/no/such/dir/out.xml"},
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if err := run(context.Background(), args, &stdout, &stderr); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestRunParallelMatchesSerial checks that -j produces the same projection
// as the serial default.
func TestRunParallelMatchesSerial(t *testing.T) {
	dtdPath, docPath, dir := writeFiles(t)
	serialOut := filepath.Join(dir, "serial.xml")
	parallelOut := filepath.Join(dir, "parallel.xml")
	args := []string{"-dtd", dtdPath, "-paths", "/*, //australia//description#", "-in", docPath}
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), append(args, "-out", serialOut), &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), append(args, "-out", parallelOut, "-j", "4"), &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	serial, err := os.ReadFile(serialOut)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := os.ReadFile(parallelOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial, parallel) {
		t.Errorf("-j 4 output differs: %d vs %d bytes", len(parallel), len(serial))
	}
}

// TestRunRemovesPartialOutputOnFailure checks that a projection failing
// mid-stream removes the partial -out file and reports the error (main
// turns it into a non-zero exit).
func TestRunRemovesPartialOutputOnFailure(t *testing.T) {
	dtdPath, _, dir := writeFiles(t)
	badPath := filepath.Join(dir, "bad.xml")
	// Starts conforming (the root is copied to the output immediately),
	// then breaks off inside a tag.
	bad := testDoc[:len(testDoc)-40] + "<name oops"
	if err := os.WriteFile(badPath, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "out.xml")
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-dtd", dtdPath,
		"-paths", "/*, //australia//description#",
		"-in", badPath,
		"-out", outPath,
	}, &stdout, &stderr)
	if err == nil {
		t.Fatal("run succeeded on a malformed document")
	}
	if _, statErr := os.Stat(outPath); !os.IsNotExist(statErr) {
		t.Errorf("partial output file left behind (stat err = %v)", statErr)
	}
}

// TestRunCancelledRemovesPartialOutput checks that an interrupted run (the
// context cancels mid-stream, as on SIGINT) surfaces ctx.Err() and removes
// the partial -out file.
func TestRunCancelledRemovesPartialOutput(t *testing.T) {
	dtdPath, docPath, dir := writeFiles(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	outPath := filepath.Join(dir, "out.xml")
	var stdout, stderr bytes.Buffer
	err := run(ctx, []string{
		"-dtd", dtdPath,
		"-paths", "/*, //australia//description#",
		"-in", docPath,
		"-out", outPath,
	}, &stdout, &stderr)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, statErr := os.Stat(outPath); !os.IsNotExist(statErr) {
		t.Errorf("partial output file left behind (stat err = %v)", statErr)
	}
}

// TestRunTraceEmitsChromeJSON checks the -trace flag: the projection output
// is unchanged and the trace file is a Chrome trace-event JSON array with
// the per-stage spans.
func TestRunTraceEmitsChromeJSON(t *testing.T) {
	dtdPath, docPath, dir := writeFiles(t)
	outPath := filepath.Join(dir, "out.xml")
	tracePath := filepath.Join(dir, "trace.json")
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-dtd", dtdPath,
		"-paths", "/*, //australia//description#",
		"-in", docPath,
		"-out", outPath,
		"-trace", tracePath,
	}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	want := `<site><australia><description>Palm</description></australia></site>`
	if string(data) != want {
		t.Errorf("traced output = %q, want %q", data, want)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace file is not a JSON array: %v", err)
	}
	names := make(map[string]bool)
	for _, ev := range events {
		if name, ok := ev["name"].(string); ok {
			names[name] = true
		}
	}
	for _, span := range []string{"compile", "scan", "replay (drive)"} {
		if !names[span] {
			t.Errorf("trace missing %q span", span)
		}
	}
}
