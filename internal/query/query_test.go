package query

import (
	"errors"
	"strings"
	"testing"

	"smp/internal/paths"
	"smp/internal/xmlgen"
)

const sampleDoc = `<site><regions><australia><item id="i1"><name>PDA</name><description><text>Palm Zire 71</text></description></item><item id="i2"><name>TV</name><description><text>flat panel</text></description></item></australia><africa><item id="i3"><name>radio</name><description><text>shortwave</text></description></item></africa></regions></site>`

func TestDOMLoadAndSelect(t *testing.T) {
	doc, err := (&DOMEngine{}).LoadBytes([]byte(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root == nil || doc.Root.Name != "site" {
		t.Fatalf("unexpected root %+v", doc.Root)
	}
	if doc.Nodes != 16 {
		t.Errorf("Nodes = %d, want 16", doc.Nodes)
	}

	nodes := doc.Select(paths.MustParse("//australia//name"))
	if len(nodes) != 2 {
		t.Fatalf("got %d australia names, want 2", len(nodes))
	}
	if nodes[0].Text != "PDA" || nodes[1].Text != "TV" {
		t.Errorf("unexpected names %q, %q", nodes[0].Text, nodes[1].Text)
	}

	all := doc.Select(paths.MustParse("//item"))
	if len(all) != 3 {
		t.Errorf("got %d items, want 3", len(all))
	}
	if got := doc.Select(paths.MustParse("/site/regions/africa/item/name")); len(got) != 1 || got[0].Text != "radio" {
		t.Errorf("africa name selection failed: %+v", got)
	}
	if got := doc.Select(paths.MustParse("/nothing")); len(got) != 0 {
		t.Errorf("unexpected matches for /nothing: %d", len(got))
	}
}

func TestDOMNodeHelpers(t *testing.T) {
	doc, err := (&DOMEngine{}).LoadBytes([]byte(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	item := doc.Root.Find("item")
	if item == nil || len(item.Attrs) != 1 || item.Attrs[0].Value != "i1" {
		t.Fatalf("Find(item) = %+v", item)
	}
	var b strings.Builder
	item.Serialize(&b)
	s := b.String()
	if !strings.HasPrefix(s, `<item id="i1">`) || !strings.Contains(s, "Palm Zire 71") || !strings.HasSuffix(s, "</item>") {
		t.Errorf("Serialize = %q", s)
	}
	if item.serializedSize() <= 0 {
		t.Error("serializedSize must be positive")
	}
	if doc.Root.Find("missing") != nil {
		t.Error("Find(missing) must return nil")
	}
}

func TestDOMEvaluateWorkload(t *testing.T) {
	doc, err := (&DOMEngine{}).LoadBytes([]byte(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	set := paths.MustParseSet("/*, //australia//description#, //australia//name#")
	res := doc.EvaluateWorkload(set)
	if res.Matches != 4 {
		t.Errorf("Matches = %d, want 4 (2 descriptions + 2 names)", res.Matches)
	}
	if res.OutputBytes <= 0 {
		t.Error("OutputBytes must be positive")
	}
	// The top-level-only path contributes nothing.
	only := doc.EvaluateWorkload(paths.MustParseSet("/*"))
	if only.Matches != 0 {
		t.Errorf("Matches for /* only = %d, want 0", only.Matches)
	}
}

func TestDOMMemoryBudget(t *testing.T) {
	big := xmlgen.XMarkBytes(xmlgen.Config{TargetSize: 200_000, Seed: 1})

	unlimited := &DOMEngine{}
	doc, err := unlimited.LoadBytes(big)
	if err != nil {
		t.Fatalf("unlimited load: %v", err)
	}
	if doc.EstimatedBytes <= int64(len(big)) {
		t.Errorf("EstimatedBytes = %d, want more than the raw input %d (tree overhead)",
			doc.EstimatedBytes, len(big))
	}

	limited := &DOMEngine{MemoryBudget: int64(len(big)) / 4}
	if _, err := limited.LoadBytes(big); !errors.Is(err, ErrMemoryBudget) {
		t.Errorf("limited load error = %v, want ErrMemoryBudget", err)
	}

	// A budget large enough for the projected document succeeds: this is the
	// Fig. 7(a) phenomenon in miniature.
	projected := []byte(`<site><australia><description>Palm</description></australia></site>`)
	if _, err := limited.LoadBytes(projected); err != nil {
		t.Errorf("projected load failed: %v", err)
	}
}

func TestDOMLoadMalformed(t *testing.T) {
	if _, err := (&DOMEngine{}).LoadBytes([]byte(`<a><b></a>`)); err == nil {
		t.Error("expected parse error")
	}
}

func TestStreamEngineEvaluate(t *testing.T) {
	e := &StreamEngine{}
	res, out, err := e.EvaluateBytes([]byte(sampleDoc), paths.MustParse("//australia//description"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != 2 {
		t.Errorf("Matches = %d, want 2", res.Matches)
	}
	if !strings.Contains(out, "Palm Zire 71") || !strings.Contains(out, "flat panel") || strings.Contains(out, "shortwave") {
		t.Errorf("unexpected output %q", out)
	}
	if res.OutputBytes != int64(len(out)) {
		t.Errorf("OutputBytes = %d, want %d", res.OutputBytes, len(out))
	}
}

func TestStreamEngineWorkload(t *testing.T) {
	e := &StreamEngine{}
	set := paths.MustParseSet("/*, //australia//name#, //africa//name#")
	res, err := e.EvaluateWorkload(strings.NewReader(sampleDoc), set, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != 3 {
		t.Errorf("Matches = %d, want 3", res.Matches)
	}
	if res.OutputBytes != 0 {
		t.Errorf("OutputBytes = %d, want 0 when no output writer is given", res.OutputBytes)
	}
}

func TestStreamEngineMalformed(t *testing.T) {
	e := &StreamEngine{}
	if _, _, err := e.EvaluateBytes([]byte(`<a><b>`), paths.MustParse("//b")); err == nil {
		t.Error("expected parse error")
	}
}

// TestStreamAndDOMAgree: on the same document and path, the streaming engine
// and the DOM engine select the same number of nodes.
func TestStreamAndDOMAgree(t *testing.T) {
	doc := xmlgen.XMarkBytes(xmlgen.Config{TargetSize: 150_000, Seed: 4})
	dom, err := (&DOMEngine{}).LoadBytes(doc)
	if err != nil {
		t.Fatal(err)
	}
	stream := &StreamEngine{}
	for _, spec := range []string{
		"/site/regions/australia/item/name",
		"//incategory",
		"/site/people/person/profile",
		"//annotation/description",
		"/site/closed_auctions/closed_auction/price",
	} {
		p := paths.MustParse(spec)
		want := len(dom.Select(p))
		res, err := stream.Evaluate(strings.NewReader(string(doc)), p, nil)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if res.Matches != want {
			t.Errorf("%s: stream found %d, DOM found %d", spec, res.Matches, want)
		}
	}
}

// TestPipelinedPrefilterPreservesResults is the Fig. 7(b) correctness core:
// evaluating a query on the prefiltered document gives the same matches as
// on the original. (The prefilter itself is exercised in internal/fig4 and
// internal/pipeline; here the reference projector stands in, keeping the
// package dependency-light.)
func TestResultAdd(t *testing.T) {
	var r Result
	r.Add(Result{Matches: 2, OutputBytes: 10})
	r.Add(Result{Matches: 3, OutputBytes: 5})
	if r.Matches != 5 || r.OutputBytes != 15 {
		t.Errorf("Result = %+v", r)
	}
}
