package core

import (
	"bytes"
	"math/rand"
	"testing"

	"smp/internal/glushkov"
	"smp/internal/xmlgen"
)

// nibblePass is the scalar form of the AVX2 filter's test of one byte
// against one table pair (the opening or closing half of ScanPlan.nibbles).
func nibblePass(t []byte, b byte) bool { return t[b&15]&t[32+int(b>>4)] != 0 }

// nonASCIIScanPlan buckets a vocabulary of non-ASCII tag names, with first
// tagname bytes under every high nibble from 8 to F beside ASCII names that
// share their low nibble. The DTD parser accepts ASCII names only, so the
// vocabulary is bucketed directly.
func nonASCIIScanPlan() *ScanPlan {
	tokens := make(map[string]glushkov.Token)
	for _, name := range []string{"été", "ñandú", "中文", "\x80x", "\x9fy", "\xafz", "\xbfw", "\xffv", "a", "p", "eq", "x"} {
		open, closing := glushkov.Open(name), glushkov.Closing(name)
		tokens[open.Keyword()] = open
		tokens[closing.Keyword()] = closing
	}
	return newScanPlan(nil, tokens)
}

// filterTestPlans are the vocabularies the nibble-table tests run over: the
// small test DTDs, each benchmark dataset's full query union, and the
// non-ASCII vocabulary.
func filterTestPlans(t testing.TB) map[string]*ScanPlan {
	union := func(dtd string, qs []xmlgen.Query) *ScanPlan {
		specs := make([]string, len(qs))
		for i, q := range qs {
			specs[i] = q.Paths
		}
		return makeScanPlan(t, dtd, specs...)
	}
	return map[string]*ScanPlan{
		"fig1":          makeScanPlan(t, fig1DTD, "/*, //australia//description#"),
		"prefix":        makeScanPlan(t, prefixScanDTD, "/*, //AbstractText#", "//Abstract#, //ab"),
		"xmark-union":   union(xmlgen.XMarkDTD(), xmlgen.XMarkQueries()),
		"medline-union": union(xmlgen.MedlineDTD(), xmlgen.MedlineQueries()),
		"non-ascii":     nonASCIIScanPlan(),
	}
}

// TestNibbleTablesCoverBuckets checks the filter's tables exhaustively over
// all 256×256 (b1, b2) pairs after a '<': every pair whose bucket is
// non-empty passes, so the filter never drops an anchor that has a keyword
// to verify. For ASCII bytes of an ASCII vocabulary the test is also exact.
func TestNibbleTablesCoverBuckets(t *testing.T) {
	for name, sp := range filterTestPlans(t) {
		s := sp.NewScanner()
		openT, closeT := sp.nibbles[:64], sp.nibbles[64:]
		ascii := name != "non-ascii"
		var passed, nonEmpty int
		for b1 := 0; b1 < 256; b1++ {
			for b2 := 0; b2 < 256; b2++ {
				data := []byte{'<', byte(b1), byte(b2)}
				pass := nibblePass(openT, byte(b1))
				if b1 == '/' {
					pass = nibblePass(closeT, byte(b2))
				}
				full := len(s.bucket(data, 0)) > 0
				if full && !pass {
					t.Fatalf("%s: %q has a non-empty bucket but fails the nibble filter", name, data)
				}
				if ascii && b1 < 0x80 && b2 < 0x80 && pass != full {
					t.Fatalf("%s: %q passes=%v, bucket non-empty=%v; want exact on ASCII", name, data, pass, full)
				}
				if pass {
					passed++
				}
				if full {
					nonEmpty++
				}
			}
		}
		t.Logf("%s: %d of 65536 pairs pass, %d have a non-empty bucket", name, passed, nonEmpty)
	}
}

// TestScanKernelsOnDocuments differences every kernel on 1 MiB XMark and
// MEDLINE documents, for every query's vocabulary and each dataset's full
// union: once over the whole document at a base past 4 GiB, and once cut
// into random segments with random lookahead, as the pipeline cuts them.
// Unlike the short inputs of TestScanSWAREquivalence, these run the 64-byte
// block loops over many blocks, the handoff to the tail loops at every
// segment end, and, on the AVX2 kernel, many refills of its survivor buffer.
func TestScanKernelsOnDocuments(t *testing.T) {
	size := int64(1 << 20)
	if testing.Short() {
		size = 256 << 10
	}
	datasets := []struct {
		name, dtd string
		doc       []byte
		queries   []xmlgen.Query
	}{
		{"xmark", xmlgen.XMarkDTD(), xmlgen.XMarkBytes(xmlgen.Config{TargetSize: size, Seed: 5}), xmlgen.XMarkQueries()},
		{"medline", xmlgen.MedlineDTD(), xmlgen.MedlineBytes(xmlgen.Config{TargetSize: size, Seed: 5}), xmlgen.MedlineQueries()},
	}
	rng := rand.New(rand.NewSource(1))
	for _, ds := range datasets {
		specs := make([]string, len(ds.queries))
		for i, q := range ds.queries {
			specs[i] = q.Paths
		}
		plans := map[string]*ScanPlan{"union": makeScanPlan(t, ds.dtd, specs...)}
		for _, q := range ds.queries {
			plans[q.ID] = makeScanPlan(t, ds.dtd, q.Paths)
		}
		doc := ds.doc
		for name, sp := range plans {
			t.Run(ds.name+"/"+name, func(t *testing.T) {
				if got := diffKernels(t, sp, doc, 5<<30, len(doc), true); len(got) == 0 {
					t.Fatal("no candidates on a whole document")
				}
				for start := 0; start < len(doc); {
					end := min(start+1+rng.Intn(64<<10), len(doc))
					dataEnd := min(end+sp.MaxKeywordLen()+1+rng.Intn(4096), len(doc))
					diffKernels(t, sp, doc[start:dataEnd], int64(start), end-start, dataEnd == len(doc))
					start = end
				}
			})
		}
	}
}

// TestScanKernelsNonASCII differences the kernels over a document of
// non-ASCII tags, mixed with ASCII tags whose bucket bytes alias the
// non-ASCII ones in the nibble tables.
func TestScanKernelsNonASCII(t *testing.T) {
	sp := nonASCIIScanPlan()
	names := []string{"été", "ñandú", "中文", "\x80x", "\x9fy", "\xafz", "\xbfw", "\xffv", "a", "p", "eq", "x", "ét", "中", "\xe0", "q", "b"}
	rng := rand.New(rand.NewSource(2))
	var doc bytes.Buffer
	for doc.Len() < 16<<10 {
		name := names[rng.Intn(len(names))]
		switch rng.Intn(4) {
		case 0:
			doc.WriteString("</" + name + ">")
		case 1:
			doc.WriteString("<" + name + " k='v'/>")
		case 2:
			doc.WriteString("<" + name + ">")
		default:
			doc.WriteString(" text é \xc3 ")
		}
	}
	data := doc.Bytes()
	if got := diffKernels(t, sp, data, 0, len(data), true); len(got) == 0 {
		t.Fatal("no candidates")
	}
	for owned := len(data) - 100; owned <= len(data); owned++ {
		diffKernels(t, sp, data, 0, owned, false)
	}
}
