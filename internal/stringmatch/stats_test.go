package stringmatch

import (
	"bytes"
	"testing"
)

func TestCountersAvgShift(t *testing.T) {
	var c Counters
	if c.AvgShift() != 0 {
		t.Errorf("AvgShift on zero counters = %f, want 0", c.AvgShift())
	}
	c.shift(4)
	c.shift(8)
	if got := c.AvgShift(); got != 6 {
		t.Errorf("AvgShift = %f, want 6", got)
	}
	c.Reset()
	if c.Shifts != 0 || c.ShiftTotal != 0 {
		t.Errorf("Reset did not zero counters: %+v", c)
	}
}

func TestCountersAdd(t *testing.T) {
	a := Counters{Comparisons: 1, Shifts: 2, ShiftTotal: 3, Windows: 4}
	b := Counters{Comparisons: 10, Shifts: 20, ShiftTotal: 30, Windows: 40}
	a.Add(b)
	want := Counters{Comparisons: 11, Shifts: 22, ShiftTotal: 33, Windows: 44}
	if a != want {
		t.Errorf("Add = %+v, want %+v", a, want)
	}
}

func TestCountersNilReceiverRecording(t *testing.T) {
	// A nil *Counters must be accepted by Next (instrumentation off).
	var c *Counters
	c.compare(3)
	c.shift(2)
	c.window()
	bm := NewBoyerMoore([]byte("xyz"))
	if pos := bm.Next([]byte("abxyzc"), 0, nil); pos != 2 {
		t.Errorf("Next with nil counters = %d, want 2", pos)
	}
}

// TestBoyerMooreSkipsCharacters verifies the core claim motivating the paper:
// Boyer-Moore inspects a small fraction of the text when the pattern does not
// occur and the alphabet is favourable.
func TestBoyerMooreSkipsCharacters(t *testing.T) {
	text := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog "), 200)
	pattern := []byte("<description")

	var bmCounters Counters
	bm := NewBoyerMoore(pattern)
	if pos := bm.Next(text, 0, &bmCounters); pos != -1 {
		t.Fatalf("unexpected match at %d", pos)
	}
	if frac := float64(bmCounters.Comparisons) / float64(len(text)); frac > 0.5 {
		t.Errorf("Boyer-Moore inspected %.0f%% of the text, expected well below 50%%", frac*100)
	}

	var naiveCounters Counters
	naive := NewNaive(pattern)
	naive.Next(text, 0, &naiveCounters)
	if bmCounters.Comparisons >= naiveCounters.Comparisons {
		t.Errorf("Boyer-Moore comparisons (%d) not below naive (%d)",
			bmCounters.Comparisons, naiveCounters.Comparisons)
	}
}

// TestCommentzWalterSkipsCharacters verifies the skip behaviour of the
// multi-keyword matcher against the every-character Aho-Corasick baseline.
func TestCommentzWalterSkipsCharacters(t *testing.T) {
	text := bytes.Repeat([]byte("<item><location>United States</location><quantity>1</quantity></item>"), 100)
	patterns := [][]byte{[]byte("<description"), []byte("</australia"), []byte("<emailaddress")}

	var cwCounters Counters
	cw := NewCommentzWalter(patterns)
	if pos, _ := cw.Next(text, 0, &cwCounters); pos != -1 {
		t.Fatalf("unexpected match at %d", pos)
	}
	var acCounters Counters
	ac := NewAhoCorasick(patterns)
	ac.Next(text, 0, &acCounters)

	if cwCounters.Comparisons >= acCounters.Comparisons {
		t.Errorf("Commentz-Walter comparisons (%d) not below Aho-Corasick (%d)",
			cwCounters.Comparisons, acCounters.Comparisons)
	}
	if avg := cwCounters.AvgShift(); avg < 2 {
		t.Errorf("average Commentz-Walter shift = %.2f, expected skip-sized shifts", avg)
	}
}

// TestAverageShiftTracksKeywordLength checks the relationship the paper
// reports between keyword length and average forward shift (Medline queries
// with long tagnames shift further than XMark queries with short ones).
func TestAverageShiftTracksKeywordLength(t *testing.T) {
	text := bytes.Repeat([]byte("abcdefghij klmnopqrst uvwxyz 0123456789 "), 500)

	var shortCounters, longCounters Counters
	NewBoyerMoore([]byte("<name")).Next(text, 0, &shortCounters)
	NewBoyerMoore([]byte("<MedlineCitationSet")).Next(text, 0, &longCounters)

	if longCounters.AvgShift() <= shortCounters.AvgShift() {
		t.Errorf("longer keyword average shift (%.2f) not above shorter keyword (%.2f)",
			longCounters.AvgShift(), shortCounters.AvgShift())
	}
}

func TestCommentzWalterMinLength(t *testing.T) {
	cw := NewCommentzWalter([][]byte{[]byte("<b"), []byte("</longname")})
	if cw.MinLength() != 2 {
		t.Errorf("MinLength = %d, want 2", cw.MinLength())
	}
}
