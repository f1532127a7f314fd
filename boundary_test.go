package smp

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// The product is the root package and the two commands built on it. It runs
// the paper's reduction of projection to keyword search (internal/core's
// scan, internal/pipeline's replays); the paper's Boyer-Moore and
// Commentz-Walter engine (internal/fig4 over internal/stringmatch) only
// reproduces the paper and checks the product in tests.
var productRoots = []string{"smp", "smp/cmd/smp", "smp/cmd/smpserve"}

// paperOnly may not be reachable from any product root through non-test
// imports. internal/projection and internal/sax join this list once
// internal/compile computes relevance without projection.Relevance (see
// ROADMAP.md, "Compile by one product walk").
var paperOnly = []string{"smp/internal/stringmatch", "smp/internal/fig4"}

// oracleFree are the production packages that must not import the
// reference projector, its tokenizer or the string matchers directly.
var oracleFree = map[string][]string{
	"smp/internal/core":     {"smp/internal/projection", "smp/internal/sax", "smp/internal/stringmatch"},
	"smp/internal/pipeline": {"smp/internal/projection", "smp/internal/sax", "smp/internal/stringmatch"},
	"smp/internal/index":    {"smp/internal/projection", "smp/internal/sax", "smp/internal/stringmatch"},
	"smp/internal/corpus":   {"smp/internal/projection", "smp/internal/sax", "smp/internal/stringmatch"},
}

// moduleImports returns the module-local packages that the non-test files
// of the module package at path import, for the current build context.
func moduleImports(t *testing.T, path string) []string {
	t.Helper()
	dir := filepath.FromSlash("." + strings.TrimPrefix(path, "smp"))
	pkg, err := build.ImportDir(dir, 0)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	var out []string
	for _, imp := range pkg.Imports {
		if imp == "smp" || strings.HasPrefix(imp, "smp/") {
			out = append(out, imp)
		}
	}
	return out
}

// TestProductImportBoundary keeps the paper's engine out of the product:
// no product root reaches a paper-only package, and the production
// packages import none of the oracle's packages directly.
func TestProductImportBoundary(t *testing.T) {
	// via records, for each reached package, the package that first
	// imported it, so a failure prints the whole import chain.
	via := make(map[string]string)
	queue := append([]string(nil), productRoots...)
	for _, root := range productRoots {
		via[root] = ""
	}
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		for _, imp := range moduleImports(t, path) {
			if _, seen := via[imp]; !seen {
				via[imp] = path
				queue = append(queue, imp)
			}
		}
	}
	for _, banned := range paperOnly {
		if _, reached := via[banned]; !reached {
			continue
		}
		chain := banned
		for p := via[banned]; p != ""; p = via[p] {
			chain = p + " -> " + chain
		}
		t.Errorf("the product reaches %s: %s", banned, chain)
	}

	for path, banned := range oracleFree {
		for _, imp := range moduleImports(t, path) {
			for _, b := range banned {
				if imp == b {
					t.Errorf("%s imports %s", path, b)
				}
			}
		}
	}
}
