package core

import (
	"fmt"
	"time"
)

// Stats collects the runtime counters of one run: what the production
// pipeline's scan kernels and replays do. The paper's Fig. 4 engine
// (internal/fig4) reports the same counters and adds the columns of the
// paper's Tables I and II that only it measures.
type Stats struct {
	// BytesRead is the document size in bytes (the window reads everything;
	// only a fraction is inspected).
	BytesRead int64
	// BytesWritten is the size of the projected output ("Proj. Size").
	BytesWritten int64
	// CharComparisons is the number of characters inspected ("Char
	// Comp."): those the keyword verification and tag-end scans examine,
	// the same on every scan kernel. The scan verifies only the '<' anchors
	// whose first two tagname bytes (after "</", the two after the slash)
	// can start a keyword of its vocabulary; each such anchor counts one
	// for the probe, then each keyword of its bucket whose end is in view
	// counts its length plus its terminator, and a match adds the bytes of
	// its tag-end scan. Anchors rejected by the two-byte test, and the
	// anchors themselves, are not counted. On the Fig. 4 engine the count
	// also includes its string matchers'.
	CharComparisons int64
	// BytesScanned is the production scan's work: the bytes its kernels
	// covered, summed over the segments they scanned. Zero on the Fig. 4
	// engine and on runs replayed from an index.
	BytesScanned int64
	// TagsMatched counts tag tokens the runtime automaton consumed.
	TagsMatched int64
	// RejectedMatches counts keyword occurrences discarded by the
	// verification scan (tagname-prefix collisions such as
	// Abstract/AbstractText).
	RejectedMatches int64
	// States is the total number of runtime-automaton states (their static
	// CW + BM split is compile.Stats).
	States int
	// MaxBufferBytes is the high-water mark of the streaming window — the
	// per-run memory. The shared table memory is reported separately by
	// PlanStats (together they approximate the paper's "Mem" column).
	// Zero-copy runs hold no private window buffer and report zero.
	MaxBufferBytes int64
	// ZeroCopyInput reports that the run scanned the document in place — a
	// memory-mapped file or a caller-provided byte slice — instead of
	// copying it through the streaming window.
	ZeroCopyInput bool
	// IndexHits counts runs served by replaying a persisted candidate index
	// (internal/index) instead of scanning the document; IndexSkips counts
	// runs that were offered an index but fell back to the scan because the
	// sidecar was missing, stale (content-hash mismatch) or did not cover
	// the query vocabulary. A single run contributes at most one of the two;
	// batches aggregate them through Add.
	IndexHits  int64
	IndexSkips int64
	// IndexSummarySkips counts index-served runs where the per-document
	// vocabulary summary proved that no query keyword occurs at all, so even
	// the replay ran over an empty candidate stream (corpus-granularity
	// prefiltering). Always <= IndexHits.
	IndexSummarySkips int64
	// ScanDuration, ReplayDuration and StitchDuration split a staged
	// (internal/pipeline) run's wall time into its stages: segment scanning
	// (in parallel mode: time the driver spent waiting on scan workers),
	// candidate replay through the runtime automaton, and stitching the
	// projected output to the writers. ScanDuration is always measured on
	// staged runs; StitchDuration is only measured when a trace is attached
	// (per-write clock reads are not free), and ReplayDuration is the
	// remainder — so without a trace it also absorbs the stitch time.
	// Every production projection is staged, single queries included; only
	// the paper's serial engine (internal/fig4, the §V reproduction and the
	// test oracle) leaves all three zero.
	ScanDuration   time.Duration
	ReplayDuration time.Duration
	StitchDuration time.Duration
}

// CharCompPercent returns CharComparisons relative to the document size.
func (s Stats) CharCompPercent() float64 {
	if s.BytesRead == 0 {
		return 0
	}
	return 100 * float64(s.CharComparisons) / float64(s.BytesRead)
}

// OutputRatio returns the projected size relative to the input size.
func (s Stats) OutputRatio() float64 {
	if s.BytesRead == 0 {
		return 0
	}
	return float64(s.BytesWritten) / float64(s.BytesRead)
}

// Add merges other's counters into s, for callers that aggregate several
// runs (a batch of documents, or the per-query legs of one multi-query
// pass): the work counters — bytes, comparisons, tags, rejections — and
// States (which sums to the total automaton size driven by the merged runs)
// are added, while MaxBufferBytes keeps the largest single-run high-water
// mark, since runs that did not overlap in time never held their buffers
// together.
func (s *Stats) Add(other Stats) {
	s.BytesRead += other.BytesRead
	s.BytesWritten += other.BytesWritten
	s.CharComparisons += other.CharComparisons
	s.BytesScanned += other.BytesScanned
	s.TagsMatched += other.TagsMatched
	s.RejectedMatches += other.RejectedMatches
	s.States += other.States
	if other.MaxBufferBytes > s.MaxBufferBytes {
		s.MaxBufferBytes = other.MaxBufferBytes
	}
	s.ZeroCopyInput = s.ZeroCopyInput || other.ZeroCopyInput
	s.IndexHits += other.IndexHits
	s.IndexSkips += other.IndexSkips
	s.IndexSummarySkips += other.IndexSummarySkips
	s.ScanDuration += other.ScanDuration
	s.ReplayDuration += other.ReplayDuration
	s.StitchDuration += other.StitchDuration
}

// String renders the counters of one run in one line.
func (s Stats) String() string {
	return fmt.Sprintf("proj=%dB mem=%dB states=%d charcomp=%.2f%%",
		s.BytesWritten, s.MaxBufferBytes, s.States, s.CharCompPercent())
}
