package fig4

import (
	"context"
	"io"
)

// window is the streaming read buffer of the runtime algorithm. The paper's
// prototype reads the document in fixed-size chunks into a pre-allocated
// buffer; within the buffered window the algorithm can jump back and forth
// freely while the window itself only ever moves forward.
//
// All positions handed to the window are absolute input offsets. The window
// keeps every byte from its retain point onward; data before the retain
// point may be discarded when space is needed. Copy regions that grow past
// the window are flushed incrementally by the engine, which keeps memory
// proportional to the chunk size rather than to the document or output size.
type window struct {
	r     io.Reader
	ctx   context.Context
	buf   []byte
	base  int64 // absolute offset of buf[0]
	n     int   // valid bytes in buf
	eof   bool
	chunk int
	// readErr is the first non-EOF read error; the engine surfaces it
	// instead of treating the truncation as an ordinary end of input. A
	// cancelled context surfaces the same way: the run's context error is
	// recorded here at the chunk boundary that observed it.
	readErr error

	// pin marks a zero-copy run: buf aliases a caller-owned (possibly
	// read-only memory-mapped) document instead of a private chunk buffer.
	// A pinned window never copies — more() re-slices buf forward chunk by
	// chunk (keeping the per-chunk context check) and compact() keeps
	// everything, since there is no private buffer to bound.
	pin bool

	bytesRead int64
	maxBuffer int
}

// clampChunk enforces the minimum read granularity in one place.
func clampChunk(chunk int) int {
	if chunk < 64 {
		return 64
	}
	return chunk
}

// newWindow returns a window reading from r in chunks of the given size,
// with the chunk buffer pre-allocated so a pooled engine's first run does
// not grow it.
func newWindow(r io.Reader, chunk int) *window {
	chunk = clampChunk(chunk)
	return &window{r: r, ctx: context.Background(), chunk: chunk, buf: make([]byte, 0, 2*chunk)}
}

// reset rebinds the window to a new reader (and run context) for another
// document, keeping the already-grown chunk buffer so pooled engines run
// allocation-free in the steady state. chunk is the read granularity of this
// run — a pooled window may serve runs with different chunk sizes. maxBuffer
// restarts at zero: it reports what this run needs, not the capacity a
// previous run on the same pooled engine grew to.
func (w *window) reset(ctx context.Context, r io.Reader, chunk int) {
	chunk = clampChunk(chunk)
	w.r = r
	w.ctx = ctx
	w.chunk = chunk
	w.base = 0
	w.n = 0
	w.eof = false
	w.readErr = nil
	w.buf = w.buf[:0]
	w.bytesRead = 0
	w.maxBuffer = 0
}

// pinTo rebinds the window to an in-memory document for a zero-copy run:
// buf aliases doc directly and no reader is involved. The document is
// revealed chunk by chunk through more(), so chunk-boundary context checks
// and BytesRead accounting behave exactly like a streaming run over the
// same bytes.
func (w *window) pinTo(ctx context.Context, doc []byte, chunk int) {
	w.r = nil
	w.ctx = ctx
	w.chunk = clampChunk(chunk)
	w.base = 0
	w.n = 0
	w.eof = false
	w.readErr = nil
	w.buf = doc[:0:len(doc)]
	w.pin = true
	w.bytesRead = 0
	w.maxBuffer = 0
}

// unpin drops a pinned window's alias into the caller's document (which may
// be unmapped right after the run) and restores streaming mode. The private
// chunk buffer is gone with the alias; the next streaming reset regrows it.
func (w *window) unpin() {
	if w.pin {
		w.buf = nil
		w.pin = false
	}
}

// end returns the absolute offset one past the last buffered byte.
func (w *window) end() int64 { return w.base + int64(w.n) }

// bytes returns the buffered window contents.
func (w *window) bytes() []byte { return w.buf[:w.n] }

// slice returns the buffered bytes of the absolute interval [from, to).
// The caller must have ensured availability.
func (w *window) slice(from, to int64) []byte {
	return w.buf[from-w.base : to-w.base]
}

// byteAt returns the byte at the absolute offset (which must be buffered).
func (w *window) byteAt(pos int64) byte { return w.buf[pos-w.base] }

// compact allows the window to discard buffered data before the absolute
// offset keep. To keep the per-tag cost amortized constant, data is only
// physically dropped once at least one chunk's worth of bytes can go;
// keeping more data than necessary is always safe.
func (w *window) compact(keep int64) {
	if w.pin {
		// A pinned window holds no private buffer to bound — and the alias
		// may be a read-only mapping, so the memmove below must not run.
		return
	}
	if keep > w.end() {
		keep = w.end()
	}
	if keep-w.base < int64(w.chunk) {
		return
	}
	drop := int(keep - w.base)
	copy(w.buf, w.buf[drop:w.n])
	w.n -= drop
	w.base = keep
	w.buf = w.buf[:w.n]
}

// more reads one more chunk from the underlying reader. It reports whether
// any new data became available. The run's context is checked here, at the
// chunk boundary, so a cancelled projection stops before its next read and
// surfaces ctx.Err() through readErr.
func (w *window) more() bool {
	if w.eof {
		return false
	}
	if err := w.ctx.Err(); err != nil {
		w.eof = true
		if w.readErr == nil {
			w.readErr = err
		}
		return false
	}
	if w.pin {
		// Zero-copy: reveal the next chunk of the pinned document by
		// re-slicing. cap(buf) is the document length.
		m := w.chunk
		if w.n+m > cap(w.buf) {
			m = cap(w.buf) - w.n
		}
		w.n += m
		w.buf = w.buf[:w.n]
		w.bytesRead += int64(m)
		if w.n == cap(w.buf) {
			w.eof = true
		}
		return m > 0
	}
	if w.n+w.chunk > cap(w.buf) {
		grown := make([]byte, w.n, w.n+2*w.chunk)
		copy(grown, w.buf[:w.n])
		w.buf = grown
	}
	w.buf = w.buf[:w.n+w.chunk]
	m, err := w.r.Read(w.buf[w.n : w.n+w.chunk])
	w.n += m
	w.buf = w.buf[:w.n]
	w.bytesRead += int64(m)
	// The high-water mark tracks the bytes this run actually held buffered,
	// so the counter stays per-run even when a pooled engine retains a large
	// buffer from an earlier document.
	if w.n > w.maxBuffer {
		w.maxBuffer = w.n
	}
	if err != nil {
		w.eof = true
		if err != io.EOF && w.readErr == nil {
			w.readErr = err
		}
	}
	return m > 0
}

// ensure makes the absolute offset pos available in the buffer (i.e. pos <
// end()). It reports false if the input ends before pos.
func (w *window) ensure(pos int64) bool {
	for w.end() <= pos {
		if !w.more() {
			return w.end() > pos
		}
	}
	return true
}
