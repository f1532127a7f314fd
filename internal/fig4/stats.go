package fig4

import (
	"fmt"

	"smp/internal/core"
)

// Stats are the counters of one Fig. 4 run: those the engine shares with
// the production pipeline, plus the columns of the paper's Tables I and II
// that only this engine measures.
type Stats struct {
	core.Stats
	// InitialJumpBytes is the number of characters skipped by initial jump
	// offsets alone ("Initial Jumps"); Shifts and ShiftTotal accumulate the
	// forward shifts performed by the string matchers ("Ø Shift Size").
	InitialJumpBytes, Shifts, ShiftTotal int64
	// CWStates and BMStates count the states searched with Commentz-Walter
	// respectively Boyer-Moore tables ("States (CW + BM)"); MatchersBuilt
	// counts the prefilter's matchers, built once by New.
	CWStates, BMStates, MatchersBuilt int
}

// InitialJumpPercent returns the characters skipped by initial jumps
// relative to the document size.
func (s Stats) InitialJumpPercent() float64 {
	if s.BytesRead == 0 {
		return 0
	}
	return 100 * float64(s.InitialJumpBytes) / float64(s.BytesRead)
}

// AvgShift returns the average forward shift size in characters.
func (s Stats) AvgShift() float64 {
	if s.Shifts == 0 {
		return 0
	}
	return float64(s.ShiftTotal) / float64(s.Shifts)
}

// String renders the stats in the shape of one Table I column.
func (s Stats) String() string {
	return fmt.Sprintf(
		"proj=%dB mem=%dB states=%d(%d+%d) shift=%.2f jumps=%.2f%% charcomp=%.2f%%",
		s.BytesWritten, s.MaxBufferBytes, s.States, s.CWStates, s.BMStates,
		s.AvgShift(), s.InitialJumpPercent(), s.CharCompPercent())
}
