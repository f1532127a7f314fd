package pipeline

import (
	"io"
	"time"

	"smp/internal/compile"
	"smp/internal/core"
	"smp/internal/glushkov"
	"smp/internal/obs"
)

// Logical trace-thread ids for the stage spans a traced run records. Tid 0
// is reserved for the caller's compile span (see smp.WithTrace).
const (
	traceTIDScan   = 1
	traceTIDReplay = 2
	traceTIDStitch = 3
)

// qrun is the replay state of one query: its automaton position, cursor,
// copy region and counters — exactly the per-run state of a standalone
// serial engine, minus the window (the driver's shared segment chain plays
// that role for every query at once).
type qrun struct {
	plan  *core.Plan
	table *compile.Table
	steps *stepTable
	// local maps the stream's keyword ids to the query's local tokens:
	// steps.local for a scan, a remapped copy for a stored stream recorded
	// under another keyword list.
	local []int32
	out   io.Writer

	q  int
	st *compile.State
	// row is steps.row(q): the current state's successors by local token.
	row    []int32
	cursor int64

	copyActive bool
	copyStart  int64

	// seg is the index (sequence number) of the segment whose candidates the
	// query consumes next, cand the position within its candidate list.
	seg, cand int

	stats    core.Stats
	writeErr error
	err      error
	done     bool
}

// live reports whether the query still consumes candidates.
func (k *qrun) live() bool { return !k.done && k.err == nil }

// enter moves the query to state q: it re-resolves the state pointer,
// completes the query if no vocabulary remains (the state is final by
// construction), and applies the state's initial jump (table J) — the same
// order as the serial engine's run loop head. The jump only moves the
// cursor past candidates the scan already found, so no skipped bytes are
// counted.
func (k *qrun) enter(q int) {
	k.q = q
	k.st = k.table.State(q)
	k.row = k.steps.row(q)
	if len(k.st.Vocabulary) == 0 {
		k.done = true
		return
	}
	k.cursor += int64(k.st.Jump)
}

// driver owns one run: the shared segment source, the chain of live
// segments, and the K query replays. The replay side is sequential — one
// goroutine, no synchronization; with a parallel source the concurrency
// lives entirely behind the source's in-order segment stream.
type driver struct {
	src      source
	segs     []*mseg // live chain; segs[0] has sequence number firstSeq
	firstSeq int
	queries  []*qrun
	// tokens is the token table of the stream's vocabulary: a candidate's
	// token is tokens[c.Kw]. Only the error path and a bachelor tag's
	// implied close read it.
	tokens []glushkov.Token

	held    int // bytes across live segments (the run's memory)
	maxHeld int

	// Stage timing. scanDur (time spent pulling segments from the source —
	// with a parallel source, time blocked waiting on scan workers) is
	// always measured: two clock reads per segment round, noise against the
	// per-segment scan itself. stitchDur (time inside output writes) is
	// only measured when a trace is attached — a clock read per Write would
	// tax candidate-dense replays — so untraced runs fold stitching into
	// the replay remainder. elapsed is run()'s wall time; the replay share
	// is derived as elapsed - scanDur - stitchDur in result().
	trace     *obs.Trace
	scanDur   time.Duration
	stitchDur time.Duration
	elapsed   time.Duration
}

func newDriver(e *Engine, dsts []io.Writer, src source, trace *obs.Trace) *driver {
	d := &driver{src: src, tokens: e.scan.Tokens(), trace: trace}
	if trace != nil {
		trace.NameThread(traceTIDScan, "scan")
		trace.NameThread(traceTIDReplay, "replay")
		trace.NameThread(traceTIDStitch, "stitch")
	}
	d.queries = make([]*qrun, len(e.plans))
	for i, plan := range e.plans {
		out := dsts[i]
		if out == nil {
			out = io.Discard
		}
		steps := &e.steps[i]
		d.queries[i] = &qrun{plan: plan, table: plan.Table(), steps: steps, local: steps.local, out: out}
	}
	return d
}

func (d *driver) lastSeq() int        { return d.firstSeq + len(d.segs) - 1 }
func (d *driver) segAt(seq int) *mseg { return d.segs[seq-d.firstSeq] }

func (d *driver) anyLive() bool {
	for _, k := range d.queries {
		if k.live() {
			return true
		}
	}
	return false
}

// load appends the next scanned segment to the chain. It reports false when
// the input is exhausted (d.src.err then carries any terminal error).
func (d *driver) load() bool {
	t0 := time.Now()
	seg := d.src.next()
	dur := time.Since(t0)
	d.scanDur += dur
	if d.trace != nil && seg != nil {
		d.trace.Add("scan", traceTIDScan, t0.Sub(d.trace.Origin()), dur)
	}
	if seg == nil {
		return false
	}
	d.segs = append(d.segs, seg)
	d.held += len(seg.data)
	if d.held > d.maxHeld {
		d.maxHeld = d.held
	}
	return true
}

// run executes the replay: load one segment per round, advance every live
// query through everything loaded, retire what nobody needs anymore.
// Pulling stops as soon as every query has finished (like the serial
// engine, which stops at its final automaton state). One query's tag chase
// can pull segments ahead mid-round; queries advanced earlier that round
// catch up on the next pass, so the loop only ends once the input is
// exhausted AND every live query has consumed every loaded segment.
func (d *driver) run() (Result, error) {
	start := time.Now()
	for _, k := range d.queries {
		k.enter(k.table.Initial)
	}
	for d.anyLive() {
		loaded := d.load()
		caughtUp := true
		for _, k := range d.queries {
			if k.live() && k.seg <= d.lastSeq() {
				d.advance(k)
				caughtUp = false
			}
		}
		d.retire()
		if !loaded && caughtUp {
			break
		}
	}
	d.finish()
	d.elapsed = time.Since(start)
	if d.trace != nil {
		d.trace.Add("replay (drive)", traceTIDReplay, start.Sub(d.trace.Origin()), d.elapsed)
		d.trace.Add("stitch (total)", traceTIDStitch, start.Sub(d.trace.Origin()), d.stitchDur)
	}
	return d.result()
}

// advance feeds k every candidate of every currently loaded segment, in
// position order. Candidates before the cursor (inside the previous tag, or
// skipped by a jump) and candidates whose token the current state does not
// search for are invisible, exactly as they are to a standalone run; the
// vocabulary test is two array loads on the candidate's keyword id.
// Resolving a straddling tag end may load further segments mid-loop;
// re-reading lastSeq each iteration picks those up.
func (d *driver) advance(k *qrun) {
	for k.live() && k.seg <= d.lastSeq() {
		seg := d.segAt(k.seg)
		for k.cand < len(seg.cands) {
			c := &seg.cands[k.cand]
			k.cand++
			if c.Pos < k.cursor {
				continue
			}
			t := k.local[c.Kw]
			if t < 0 {
				continue
			}
			next := k.row[t]
			if next == notInVocab {
				continue
			}
			d.selectCandidate(k, c, next)
			if !k.live() {
				return
			}
		}
		k.seg++
		k.cand = 0
	}
}

// selectCandidate performs one step of the Fig. 4 automaton for query k: the
// candidate is the first valid occurrence of the state's vocabulary at or
// after the cursor — the same occurrence the standalone engine's search
// would have matched, and next is its step-table entry. A bachelor tag is
// treated as its opening tag immediately followed by its closing tag.
func (d *driver) selectCandidate(k *qrun, c *core.Candidate, next int32) {
	tagEnd, bachelor, err := d.resolveTagEnd(k, c)
	if err != nil {
		k.err = err
		return
	}
	if next == noTransition {
		k.err = core.TransitionError(k.q, d.tokens[c.Kw])
		return
	}
	if c.Close {
		d.performClose(k, k.table.State(int(next)), tagEnd, false)
		k.q = int(next)
	} else {
		d.performOpen(k, k.table.State(int(next)), c.Pos, tagEnd, bachelor)
		k.q = int(next)
		if bachelor {
			// The implied close keeps the map lookup: it runs once per
			// bachelor match, not once per candidate.
			closeTok := glushkov.Closing(d.tokens[c.Kw].Name)
			nextClose := k.table.Successor(k.q, closeTok)
			if nextClose < 0 {
				k.err = core.TransitionError(k.q, closeTok)
				return
			}
			d.performClose(k, k.table.State(nextClose), tagEnd, true)
			k.q = nextClose
		}
	}
	if k.writeErr != nil {
		k.err = k.writeErr
		return
	}
	k.stats.TagsMatched++
	k.cursor = tagEnd + 1
	k.enter(k.q)
}

// resolveTagEnd returns the candidate's tag end, resuming the scan across
// following segments when the tag straddles the candidate's data (the
// scanner then reported Complete == false). Running out of input mirrors the
// serial engine: a pending read or context error surfaces as such, a clean
// end of input inside a tag is the EOF-inside-tag error.
func (d *driver) resolveTagEnd(k *qrun, c *core.Candidate) (int64, bool, error) {
	if c.Complete {
		return c.TagEnd, c.Bachelor, c.Err()
	}
	var ts core.TagScan
	i := c.Pos + int64(c.KwLen)
	for {
		seg, err := d.segmentAt(i)
		if err != nil {
			return 0, false, err
		}
		if seg == nil {
			return 0, false, core.EOFInsideTagError(c.Pos)
		}
		data := seg.data[:seg.owned]
		for rel := int(i - seg.base); rel < len(data); rel++ {
			k.stats.CharComparisons++
			done, bachelor := ts.Feed(data[rel])
			if done {
				if c.Close {
					bachelor = false
				}
				return seg.base + int64(rel), bachelor, nil
			}
			if seg.base+int64(rel)+1-c.Pos > core.MaxTagLength {
				return 0, false, core.TagTooLongError(c.Pos)
			}
		}
		i = seg.end()
	}
}

// segmentAt returns the live segment whose owned range covers the absolute
// offset, loading further segments as needed. It returns (nil, nil) past the
// end of input and the terminal error if the input failed.
func (d *driver) segmentAt(off int64) (*mseg, error) {
	for {
		for _, seg := range d.segs {
			if off >= seg.base && off < seg.end() {
				return seg, nil
			}
		}
		if !d.load() {
			return nil, d.src.err()
		}
	}
}

// performOpen executes the action of the state entered by an opening tag
// (mirror of the serial engine's performOpen, writing to k's output).
func (d *driver) performOpen(k *qrun, st *compile.State, tagStart, tagEnd int64, bachelor bool) {
	switch st.Action {
	case compile.CopySubtree:
		k.copyActive = true
		k.copyStart = tagStart
	case compile.CopyTagAttrs:
		d.writeRaw(k, tagStart, tagEnd+1)
	case compile.CopyTag:
		open, _, bach := k.plan.TagBytes(st)
		if bachelor {
			d.writeTag(k, bach)
		} else {
			d.writeTag(k, open)
		}
	}
}

// performClose executes the action of the state entered by a closing tag
// (mirror of the serial engine's performClose).
func (d *driver) performClose(k *qrun, st *compile.State, tagEnd int64, bachelor bool) {
	switch st.Action {
	case compile.CopySubtree:
		if k.copyActive {
			d.writeRaw(k, k.copyStart, tagEnd+1)
			k.copyActive = false
		} else if !bachelor {
			_, closeTag, _ := k.plan.TagBytes(st)
			d.writeTag(k, closeTag)
		}
	case compile.CopyTagAttrs, compile.CopyTag:
		if !bachelor {
			_, closeTag, _ := k.plan.TagBytes(st)
			d.writeTag(k, closeTag)
		}
	}
}

// ensureCovered loads segments until the chain's owned ranges cover the
// absolute offset. It reports false only if the input ends first, which
// cannot happen for offsets inside a resolved tag.
func (d *driver) ensureCovered(off int64) bool {
	for {
		if n := len(d.segs); n > 0 && d.segs[n-1].end() > off {
			return true
		}
		if !d.load() {
			return false
		}
	}
}

// writeRaw copies the input bytes [from, to) to k's output, assembling them
// from the live segments' owned ranges. A resolved tag end may lie in a
// segment's lookahead whose owner has not been loaded yet — ensureCovered
// loads it first.
func (d *driver) writeRaw(k *qrun, from, to int64) {
	if k.writeErr != nil || to <= from {
		return
	}
	if !d.ensureCovered(to - 1) {
		if k.writeErr = d.src.err(); k.writeErr == nil {
			k.writeErr = io.ErrUnexpectedEOF
		}
		return
	}
	for _, seg := range d.segs {
		lo, hi := from, to
		if lo < seg.base {
			lo = seg.base
		}
		if hi > seg.end() {
			hi = seg.end()
		}
		if lo >= hi {
			continue
		}
		var t0 time.Time
		if d.trace != nil {
			t0 = time.Now()
		}
		n, err := k.out.Write(seg.data[lo-seg.base : hi-seg.base])
		if d.trace != nil {
			d.stitchDur += time.Since(t0)
		}
		k.stats.BytesWritten += int64(n)
		if err != nil {
			k.writeErr = err
			return
		}
	}
}

// writeTag writes a synthesized tag to k's output. It takes the plan's
// interned bytes, not a string: io.WriteString on a writer without a
// WriteString method copies its argument into a fresh slice on every call.
func (d *driver) writeTag(k *qrun, tag []byte) {
	if k.writeErr != nil {
		return
	}
	var t0 time.Time
	if d.trace != nil {
		t0 = time.Now()
	}
	n, err := k.out.Write(tag)
	if d.trace != nil {
		d.stitchDur += time.Since(t0)
	}
	k.stats.BytesWritten += int64(n)
	if err != nil {
		k.writeErr = err
	}
}

// retire drops head segments every live query has moved past, flushing each
// open copy region up to the retired boundary first (its bytes can never be
// needed again — the next selected match starts at or after it; the serial
// engine flushes at window boundaries instead, but both emit the region's
// bytes contiguously, so the concatenated output is identical). Retired
// buffers go back to the source for reuse.
func (d *driver) retire() {
	for len(d.segs) > 0 {
		head := d.segs[0]
		for _, k := range d.queries {
			if k.live() && k.seg <= d.firstSeq {
				return
			}
		}
		for _, k := range d.queries {
			if k.live() && k.copyActive && k.copyStart < head.end() {
				d.writeRaw(k, k.copyStart, head.end())
				k.copyStart = head.end()
				if k.writeErr != nil {
					k.err = k.writeErr
				}
			}
		}
		// Shift the chain down rather than reslice it: a chain resliced
		// from the front loses capacity, and load's append would then
		// reallocate it every few segments.
		d.segs = d.segs[:copy(d.segs, d.segs[1:])]
		d.firstSeq++
		d.held -= len(head.data)
		d.src.recycle(head)
	}
}

// finish settles every query still live once the input is exhausted: a
// terminal source error (read failure, cancelled context) fails each of them
// — the standalone engine would have hit the same error at its window's next
// read, even in a final state — while a clean end of input completes queries
// whose state is final and diagnoses the others exactly as the serial
// engine's end-of-input path does.
func (d *driver) finish() {
	if err := d.src.err(); err != nil {
		for _, k := range d.queries {
			if k.live() {
				k.err = err
			}
		}
		return
	}
	for _, k := range d.queries {
		if !k.live() {
			continue
		}
		if k.st.Final {
			k.done = true
		} else {
			k.err = core.EndOfInputError(k.q, k.st)
		}
	}
}

// result unwinds the source, folds the scan-side counters and assembles the
// per-query Stats and error slots.
func (d *driver) result() (Result, error) {
	res := Result{Query: make([]core.Stats, len(d.queries))}
	d.src.close(&res.Scan)
	res.Scan.MaxBufferBytes = int64(d.maxHeld)
	res.Scan.ScanDuration = d.scanDur
	res.Scan.StitchDuration = d.stitchDur
	if rep := d.elapsed - d.scanDur - d.stitchDur; rep > 0 {
		res.Scan.ReplayDuration = rep
	}

	failed := false
	for i, k := range d.queries {
		k.stats.BytesRead = res.Scan.BytesRead
		k.stats.States = k.table.Stats.States
		res.Query[i] = k.stats
		if k.err != nil {
			failed = true
		}
	}
	if !failed {
		return res, nil
	}
	errs := make([]error, len(d.queries))
	for i, k := range d.queries {
		errs[i] = k.err
	}
	return res, &Error{Errs: errs}
}
