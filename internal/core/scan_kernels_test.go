package core

import (
	"bytes"
	"math/rand"
	"testing"

	"smp/internal/glushkov"
	"smp/internal/xmlgen"
)

// nibblePass is the scalar form of the AVX2 filter's test of the anchor at
// pos: the first two tagname bytes after '<', or after "</", looked up in
// the nibble tables. data must hold pos+3.
func nibblePass(t *nibbleTables, data []byte, pos int) bool {
	hi1, lo2, hi2 := nibbleOpenHi1, nibbleOpenLo2, nibbleOpenHi2
	b1, b2 := data[pos+1], data[pos+2]
	if b1 == '/' {
		hi1, lo2, hi2 = nibbleCloseHi1, nibbleCloseLo2, nibbleCloseHi2
		b1, b2 = data[pos+2], data[pos+3]
	}
	return t[nibbleLo1][b1&15]&t[hi1][b1>>4]&t[lo2][b2&15]&t[hi2][b2>>4] != 0
}

// startsKeyword is the definition the two-byte test implements, computed
// from the vocabulary alone: whether some keyword of sp agrees with the
// anchor at pos on '<', the optional '/', and the first tagname byte, and
// continues with the byte after it — the keyword's next byte, or any tag
// terminator when the tagname has one byte.
func startsKeyword(sp *ScanPlan, data []byte, pos int) bool {
	closing := data[pos+1] == '/'
	first := pos + 1
	if closing {
		first++
	}
	for i, kw := range sp.Keywords() {
		if sp.Tokens()[i].Close != closing || kw[first-pos] != data[first] {
			continue
		}
		if next := first - pos + 1; next < len(kw) {
			if kw[next] == data[first+1] {
				return true
			}
		} else if IsTagTerminator(data[first+1], closing) {
			return true
		}
	}
	return false
}

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

// TestNibbleTablesCoverBuckets checks the two-byte test exhaustively: over
// every byte triple after '<' ("<b1b2") and every quadruple after "</"
// ("</b1b2"), the exact test (bucket) admits the anchor exactly when some
// keyword starts with those bytes, and the vector tables admit every anchor
// the exact test does, so the filter never drops an anchor that has a
// keyword to verify.
func TestNibbleTablesCoverBuckets(t *testing.T) {
	for name, sp := range filterTestPlans(t) {
		s := sp.NewScanner()
		var passed, exact int
		for _, prefix := range []string{"<", "</"} {
			for b1 := 0; b1 < 256; b1++ {
				if prefix == "<" && b1 == '/' {
					continue // the closing prefix
				}
				for b2 := 0; b2 < 256; b2++ {
					data := append([]byte(prefix), byte(b1), byte(b2), 'x')
					want := startsKeyword(sp, data, 0)
					got := s.bucket(data, 0) != nil
					if got != want {
						t.Fatalf("%s: %q: exact test %v, want %v", name, data, got, want)
					}
					pass := nibblePass(&sp.nibbles, data, 0)
					if got && !pass {
						t.Fatalf("%s: %q starts a keyword but fails the nibble filter", name, data)
					}
					if pass {
						passed++
					}
					if got {
						exact++
					}
				}
			}
		}
		t.Logf("%s: %d of 2×65536 two-byte prefixes pass the nibble filter, %d the exact test", name, passed, exact)
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
