package pipeline

import (
	"bytes"
	"context"
	"io"
	"sync"

	"smp/internal/core"
)

// mseg is one scanned slice of the input: the bytes from absolute offset
// base onward, of which the first owned bytes belong to this segment (the
// rest is the lookahead the scanner needs for keywords starting on the last
// owned bytes), plus the candidates found within the owned range.
// Consecutive segments' owned ranges tile the input without gaps or
// overlaps, so candidate ownership is unambiguous.
type mseg struct {
	base  int64
	data  []byte
	owned int
	final bool
	cands []core.Candidate

	// sentinelErr is a terminal read or context error; it travels as a
	// sentinel segment (owned == 0) after the last data segment of a
	// parallel source. The serial source reports its error directly.
	sentinelErr error
	// scanned receives one token from the scanning worker of a parallel
	// source once cands is filled; nil for serial segments (scanned
	// in-line). Its buffer of one lets the worker signal without waiting
	// for the driver, and lets the channel survive recycling.
	scanned chan struct{}
	// skipped marks a segment whose scan was skipped because the run
	// context was cancelled; its empty candidate list must read as a
	// cancellation, never as a clean end of input. Written by the scanning
	// worker before it signals scanned.
	skipped bool
}

// end returns the absolute offset one past the segment's owned bytes — the
// canonical coverage boundary.
func (s *mseg) end() int64 { return s.base + int64(s.owned) }

// source is the segment stream a driver replays: an in-order sequence of
// scanned segments whose owned ranges tile the input. The two
// implementations are the serial in-line scan and the W-worker parallel
// scan; the driver cannot tell them apart, which is exactly the point —
// every cell of the K×W grid replays one stream shape.
type source interface {
	// next returns the next scanned in-order segment, or nil when the stream
	// ended; err then reports the terminal failure (nil at a clean end).
	next() *mseg
	// err returns the terminal read or context error once next returned nil.
	err() error
	// recycle returns a retired segment's buffers for reuse. The caller
	// guarantees no query still references the segment's data.
	recycle(*mseg)
	// close unwinds the source — stopping any reader and worker goroutines —
	// and folds the scan-side counters (bytes read, comparisons, shifts,
	// rejected matches) into st. It must be called exactly once, after the
	// last next.
	close(st *core.Stats)
}

// segPool recycles one run's retired segments: the structs with, for
// streamed input, their data buffers, which the segmenter draws new
// segments from, and the candidate lists, which the scanners draw from at
// scan time — so the steady state of a run allocates nothing per segment,
// and a serial run keeps a single list in circulation. The parallel source
// shares the pool between the driver (put), the reader and the scanners,
// hence the lock. It is a free list only: an empty pool allocates, it
// never waits for a retirement — a tag straddling many segments keeps them
// all live, so a bound released on retire could deadlock.
type segPool struct {
	mu    sync.Mutex
	segs  []*mseg
	cands [][]core.Candidate
	// candCap is the largest candidate-list capacity retired so far: a
	// list allocated once the pool has run dry starts at that size instead
	// of growing from nil.
	candCap int
	// parallel gives new segments their scanned channel.
	parallel bool
	// keepData is false when segments alias an in-memory document: that
	// memory must never be written to, so only candidate lists are kept.
	keepData bool
}

// get returns an empty segment, with a data buffer for streamed input once
// one has been retired.
func (p *segPool) get() *mseg {
	p.mu.Lock()
	if n := len(p.segs); n > 0 {
		seg := p.segs[n-1]
		p.segs = p.segs[:n-1]
		p.mu.Unlock()
		return seg
	}
	p.mu.Unlock()
	seg := &mseg{}
	if p.parallel {
		seg.scanned = make(chan struct{}, 1)
	}
	return seg
}

// candidates returns an empty candidate list to scan into.
func (p *segPool) candidates() []core.Candidate {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.cands); n > 0 {
		cands := p.cands[n-1]
		p.cands = p.cands[:n-1]
		return cands
	}
	if p.candCap == 0 {
		return nil
	}
	return make([]core.Candidate, 0, p.candCap)
}

// put resets a retired segment and keeps its buffers for reuse.
func (p *segPool) put(seg *mseg) {
	data := seg.data[:0]
	if !p.keepData {
		data = nil
	}
	cands := seg.cands[:0]
	*seg = mseg{data: data, scanned: seg.scanned}
	p.mu.Lock()
	p.segs = append(p.segs, seg)
	if cap(cands) > 0 {
		p.cands = append(p.cands, cands)
		p.candCap = max(p.candCap, cap(cands))
	}
	p.mu.Unlock()
}

// segmenter cuts the input into overlapping segments: the one segmentation
// loop behind both sources. A streamed input (r non-nil) is read into
// pooled buffers, each segment's lookahead tail copied into the next one's
// buffer; an in-memory input (r nil) is cut the same way, but its segments
// alias doc, with no copies. The context is checked at every segment
// boundary, so a cancelled run stops before its next read.
type segmenter struct {
	ctx     context.Context
	r       io.Reader
	doc     []byte
	segSize int
	overlap int
	// pool is the run's free list: segments are drawn from it and retired
	// segments recycled to it.
	pool segPool

	// carry is the next segment, drawn from the pool; for a streamed input
	// its data holds the bytes already read past the previous boundary.
	carry *mseg
	base  int64
	done  bool
	// terminal is the terminal failure — a read error or the run context's
	// error — observed after the last data segment was handed out; nil at a
	// clean end of input.
	terminal  error
	bytesRead int64
}

// newSegmenter prepares the cut of r (or of doc when r is nil). first holds
// any bytes of r already read, the start of the first segment.
func newSegmenter(ctx context.Context, r io.Reader, first, doc []byte, segSize, overlap int, parallel bool) *segmenter {
	g := &segmenter{ctx: ctx, r: r, doc: doc, segSize: segSize, overlap: overlap}
	g.pool.parallel, g.pool.keepData = parallel, r != nil
	g.carry = g.pool.get()
	g.carry.data = first
	g.bytesRead = int64(len(first))
	return g
}

// next returns the next segment, unscanned, or nil once the input is
// exhausted (terminal then holds any failure). A mid-stream read error
// emits the bytes read so far as a non-final trailing segment first —
// anything unresolved at its edge (a truncated keyword or tag) then chases
// the next segment, finds none, and surfaces the underlying error exactly
// where the serial window would.
func (g *segmenter) next() *mseg {
	if g.done {
		return nil
	}
	if err := g.ctx.Err(); err != nil {
		g.done = true
		g.terminal = err
		return nil
	}
	seg := g.carry
	want := g.segSize + g.overlap
	if g.r == nil {
		seg.data = g.doc[g.base:min(int(g.base)+want, len(g.doc))]
		g.bytesRead = g.base + int64(len(seg.data))
		if len(seg.data) < want {
			g.done = true
			return g.emit(len(seg.data), true)
		}
	} else if len(seg.data) < want {
		if cap(seg.data) < want {
			grown := make([]byte, len(seg.data), want)
			copy(grown, seg.data)
			seg.data = grown
		}
		n, err := io.ReadFull(g.r, seg.data[len(seg.data):want])
		seg.data = seg.data[:len(seg.data)+n]
		g.bytesRead += int64(n)
		switch err {
		case nil:
		case io.EOF, io.ErrUnexpectedEOF:
			g.done = true
			return g.emit(len(seg.data), true)
		default:
			g.done = true
			g.terminal = err
			return g.emit(len(seg.data), false)
		}
	}
	// A parallel source backs the boundary off to the last '<' before the
	// nominal end (see cut); the serial source cuts at fixed offsets. Either
	// way the boundary only assigns candidate ownership.
	owned := g.segSize
	if g.pool.parallel {
		owned = cut(seg.data, g.segSize)
	}
	return g.emit(owned, false)
}

// emit hands out the carry segment owning its first owned bytes and, unless
// the input ended, draws the next carry — for a streamed input seeded with
// the tail (the lookahead the two segments share).
func (g *segmenter) emit(owned int, final bool) *mseg {
	seg := g.carry
	seg.base, seg.owned, seg.final = g.base, owned, final
	g.base += int64(owned)
	g.carry = nil
	if g.done {
		return seg
	}
	next := g.pool.get()
	if g.r != nil {
		if want := g.segSize + g.overlap; cap(next.data) < want {
			next.data = make([]byte, 0, want)
		}
		next.data = append(next.data[:0], seg.data[owned:]...)
	}
	g.carry = next
	seg.data = seg.data[:owned+g.overlap]
	return seg
}

// serialSource scans the segmenter's segments in-line against the union
// vocabulary — the W <= 1 shape of the shared pass: no goroutines, recycled
// buffers, reads stop as soon as the driver stops asking.
type serialSource struct {
	seg *segmenter
	sc  *core.SegmentScanner
}

func newSerialSource(ctx context.Context, r io.Reader, doc []byte, scan *core.ScanPlan, segSize int) *serialSource {
	return &serialSource{
		seg: newSegmenter(ctx, r, nil, doc, segSize, scan.MaxKeywordLen()+1, false),
		sc:  scan.NewScanner(),
	}
}

// next returns the next scanned segment, or nil when the input is
// exhausted.
func (s *serialSource) next() *mseg {
	seg := s.seg.next()
	if seg != nil {
		seg.cands = s.sc.Scan(s.seg.pool.candidates(), seg.data, seg.base, seg.owned, seg.final)
	}
	return seg
}

func (s *serialSource) err() error { return s.seg.terminal }

func (s *serialSource) recycle(seg *mseg) { s.seg.pool.put(seg) }

func (s *serialSource) close(st *core.Stats) {
	m, inspected, rejected := s.sc.Counters()
	st.BytesRead = s.seg.bytesRead
	st.CharComparisons += m.Comparisons + inspected
	st.Shifts += m.Shifts
	st.ShiftTotal += m.ShiftTotal
	st.RejectedMatches += rejected
}

// scanAhead is the capacity of the parallel source's reorder buffer: the
// reader blocks once this many segments await the driver, so the scan runs
// at most scanAhead+1 segments ahead of the replay (the one more is the
// segment the blocked reader holds), whatever the input's shape or
// backing. Two rounds of W segments keep every worker busy while the
// driver consumes the previous round; the +2 absorbs the segment being
// replayed and the one being cut.
func scanAhead(workers int) int { return 2*workers + 2 }

// parallelSource scans segments on W worker goroutines. A reader goroutine
// runs the segmenter — over a stream or an in-memory document alike — and
// feeds each segment to a worker (jobs) and, in input order, to the driver
// (ordered, the bounded reorder buffer); workers fill each segment's
// candidate list and signal its scanned channel. The driver's pulls observe
// the run context directly, so a cancelled projection unblocks without
// waiting for the reader to notice.
type parallelSource struct {
	ctx  context.Context
	scan *core.ScanPlan
	seg  *segmenter

	jobs    chan *mseg
	ordered chan *mseg
	quit    chan struct{}

	readerWG sync.WaitGroup
	scanWG   sync.WaitGroup
	mu       sync.Mutex
	scanners []*core.SegmentScanner

	done     bool
	terminal error
}

// newParallelSource starts the reader and the W scanners over r (first
// holds the block Project already read while probing the input size) or,
// when r is nil, over the in-memory doc.
func newParallelSource(ctx context.Context, scan *core.ScanPlan, workers, segSize, overlap int, r io.Reader, first, doc []byte) *parallelSource {
	p := &parallelSource{
		ctx:     ctx,
		scan:    scan,
		jobs:    make(chan *mseg, workers),
		ordered: make(chan *mseg, scanAhead(workers)),
		quit:    make(chan struct{}),
	}
	p.seg = newSegmenter(ctx, r, first, doc, segSize, overlap, true)
	p.readerWG.Add(1)
	go func() {
		defer p.readerWG.Done()
		p.read()
	}()
	for w := 0; w < workers; w++ {
		p.scanWG.Add(1)
		go func() {
			defer p.scanWG.Done()
			p.scanJobs()
		}()
	}
	return p
}

// scanJobs is one worker: it scans segments from jobs until the channel
// closes. Once the run is cancelled or the driver has stopped pulling, the
// remaining scans are skipped — each segment is still signalled, so a
// driver that has not yet observed the cancellation never blocks on a
// skipped segment (its empty candidate list just stops the replay until
// the terminal sentinel arrives).
func (p *parallelSource) scanJobs() {
	sc := p.scan.NewScanner()
	for seg := range p.jobs {
		select {
		case <-p.quit:
			seg.skipped = true
		default:
			if p.ctx.Err() == nil {
				seg.cands = sc.Scan(p.seg.pool.candidates(), seg.data, seg.base, seg.owned, seg.final)
			} else {
				seg.skipped = true
			}
		}
		seg.scanned <- struct{}{}
	}
	p.mu.Lock()
	p.scanners = append(p.scanners, sc)
	p.mu.Unlock()
}

// read runs the segmentation loop, handing each segment to a worker and,
// in order, to the driver, then the terminal error sentinel if the input
// failed or the run was cancelled.
func (p *parallelSource) read() {
	defer close(p.jobs)
	defer close(p.ordered)
	for {
		seg := p.seg.next()
		if seg == nil {
			if err := p.seg.terminal; err != nil {
				p.sendSentinel(err)
			}
			return
		}
		if !p.emit(seg) {
			return
		}
	}
}

// emit hands a segment to a worker and to the driver's reorder buffer. It
// reports false when the run has been unwound.
func (p *parallelSource) emit(seg *mseg) bool {
	select {
	case p.jobs <- seg:
	case <-p.quit:
		return false
	}
	select {
	case p.ordered <- seg:
	case <-p.quit:
		return false
	}
	return true
}

// sendSentinel emits the terminal error sentinel to the driver.
func (p *parallelSource) sendSentinel(err error) {
	select {
	case p.ordered <- &mseg{sentinelErr: err}:
	case <-p.quit:
	}
}

// next pulls the next in-order segment, waiting for its scan to finish. It
// returns nil when the input is exhausted, the source failed, or the run
// context is cancelled (terminal then carries ctx.Err(), so a cancelled
// projection fails without waiting for the reader to notice).
func (p *parallelSource) next() *mseg {
	if p.done {
		return nil
	}
	var seg *mseg
	var ok bool
	select {
	case seg, ok = <-p.ordered:
	case <-p.ctx.Done():
		p.done = true
		p.terminal = p.ctx.Err()
		return nil
	}
	if !ok {
		p.done = true
		return nil
	}
	if seg.sentinelErr != nil {
		p.done = true
		p.terminal = seg.sentinelErr
		return nil
	}
	<-seg.scanned
	if seg.skipped {
		// The worker skipped this scan because the run was cancelled after
		// the reader had already finished cleanly — without this check the
		// replay would mistake the missing candidates for a short document.
		p.done = true
		p.terminal = p.ctx.Err()
		return nil
	}
	return seg
}

func (p *parallelSource) err() error { return p.terminal }

// recycle returns a retired segment to the run's pool, where the reader
// draws its next segments from; segments aliasing an in-memory document
// give back only their candidate list.
func (p *parallelSource) recycle(seg *mseg) { p.seg.pool.put(seg) }

// close unwinds the pipeline: stop the reader (it may be blocked on a full
// channel or a slow src), let the workers skip the remaining jobs, discard
// whatever the driver did not consume, then fold the workers' scan counters
// and the reader's byte count into st.
func (p *parallelSource) close(st *core.Stats) {
	close(p.quit)
	for range p.ordered {
	}
	p.readerWG.Wait()
	p.scanWG.Wait()
	st.BytesRead = p.seg.bytesRead
	for _, sc := range p.scanners {
		m, inspected, rejected := sc.Counters()
		st.CharComparisons += m.Comparisons + inspected
		st.Shifts += m.Shifts
		st.ShiftTotal += m.ShiftTotal
		st.RejectedMatches += rejected
	}
}

// cut picks the segment boundary: the offset of the last '<' at or before
// target, found by backing off from the nominal (even) segment end, so that
// keywords usually start exactly on a boundary and never straddle one. A
// '<' inside text or a quoted attribute value is also safe — the boundary
// only assigns candidate ownership, the scan itself is position-exhaustive
// — and if no '<' exists in (0, target] the nominal end is used as is.
func cut(buf []byte, target int) int {
	if target >= len(buf) {
		target = len(buf) - 1
	}
	// Exclude offset 0: a boundary must make progress.
	if i := bytes.LastIndexByte(buf[1:target+1], '<'); i >= 0 {
		return i + 1
	}
	return target
}

// errorReader replays a reader's error so a failing source can be handed to
// the serial path prefix-first.
type errorReader struct{ err error }

func (r errorReader) Read([]byte) (int, error) { return 0, r.err }
