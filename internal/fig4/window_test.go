package fig4

import (
	"strings"
	"testing"
)

func TestWindowEnsureAndSlice(t *testing.T) {
	data := strings.Repeat("abcdefghij", 100) // 1000 bytes
	w := newWindow(strings.NewReader(data), 64)
	if !w.ensure(0) {
		t.Fatal("ensure(0) failed")
	}
	if got := w.byteAt(0); got != 'a' {
		t.Errorf("byteAt(0) = %c", got)
	}
	if !w.ensure(999) {
		t.Fatal("ensure(999) failed")
	}
	if got := string(w.slice(990, 1000)); got != "abcdefghij" {
		t.Errorf("slice(990,1000) = %q", got)
	}
	if w.ensure(1000) {
		t.Error("ensure(1000) must fail at EOF")
	}
	if w.bytesRead != 1000 {
		t.Errorf("bytesRead = %d", w.bytesRead)
	}
}

func TestWindowCompact(t *testing.T) {
	data := strings.Repeat("x", 500)
	w := newWindow(strings.NewReader(data), 64)
	if !w.ensure(200) {
		t.Fatal("ensure failed")
	}
	w.compact(150)
	if w.base != 150 {
		t.Errorf("base = %d, want 150", w.base)
	}
	if !w.ensure(499) {
		t.Fatal("ensure after compact failed")
	}
	if got := w.byteAt(499); got != 'x' {
		t.Errorf("byteAt(499) = %c", got)
	}
	// Compacting to a point before the base is a no-op.
	w.compact(10)
	if w.base != 150 {
		t.Errorf("base after no-op compact = %d", w.base)
	}
	// Compacting past the end clamps to the end.
	w.compact(10_000)
	if w.base != 500 || w.n != 0 {
		t.Errorf("base, n = %d, %d after over-compact", w.base, w.n)
	}
}

func TestWindowBoundedMemoryWithCompaction(t *testing.T) {
	data := strings.Repeat("y", 1<<20) // 1 MiB
	w := newWindow(strings.NewReader(data), 1024)
	pos := int64(0)
	for w.ensure(pos) {
		pos += 512
		w.compact(pos)
	}
	// With compaction after every step the buffer must stay near the chunk
	// size, far below the input size.
	if w.maxBuffer > 16*1024 {
		t.Errorf("maxBuffer = %d, want bounded by a few chunks", w.maxBuffer)
	}
	if w.bytesRead != 1<<20 {
		t.Errorf("bytesRead = %d", w.bytesRead)
	}
}

func TestWindowGrowsWithoutCompaction(t *testing.T) {
	data := strings.Repeat("z", 64*1024)
	w := newWindow(strings.NewReader(data), 1024)
	if !w.ensure(64*1024 - 1) {
		t.Fatal("ensure failed")
	}
	if got := string(w.slice(0, 10)); got != "zzzzzzzzzz" {
		t.Errorf("slice = %q", got)
	}
}
