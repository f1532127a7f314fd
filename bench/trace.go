package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The tracer records one span around every call the benchmark makes into a
// layer's public function, keeps the spans in memory, and writes them out
// at exit. Spans live in the benchmark's own code only: the program under
// test is not instrumented further than it already is.

// span is one completed call. Start and End are nanoseconds since the
// tracer's origin; Parent is the span that caused it (0 for a root) and Req
// groups the spans of one request or operation.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Lane   int    `json:"lane"`
	PID    int    `json:"pid"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// maxSpans bounds the recorder; a run that outgrows it drops the rest and
// says so in its per-layer report.
const maxSpans = 1 << 20

// tracer is a concurrency-safe span recorder. A nil *tracer records nothing,
// so untraced runs pay one nil check per call.
type tracer struct {
	origin  time.Time
	pid     int
	nextID  atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer(pid int) *tracer { return &tracer{origin: time.Now(), pid: pid} }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t *tracer
	s span
}

// begin starts a span.
func (t *tracer) begin(name, layer string, parent, req int64, lane int) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t, span{
		Name: name, Layer: layer, ID: t.nextID.Add(1), Parent: parent, Req: req,
		Lane: lane, PID: t.pid, Start: int64(time.Since(t.origin)),
	}}
}

// id returns the span's identifier, 0 when not tracing.
func (o openSpan) id() int64 { return o.s.ID }

// end closes the span now.
func (o openSpan) end() { o.endAt(time.Now()) }

// endAt closes the span at a time measured by the caller.
func (o openSpan) endAt(at time.Time) {
	if o.t == nil {
		return
	}
	o.s.End = int64(at.Sub(o.t.origin))
	o.t.add(o.s)
}

// record adds a span whose interval the caller measured itself.
func (t *tracer) record(name, layer string, parent, req int64, lane int, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	s := span{
		Name: name, Layer: layer, ID: t.nextID.Add(1), Parent: parent, Req: req,
		Lane: lane, PID: t.pid, Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)),
	}
	t.add(s)
	return s.ID
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// absorb adds the spans another process recorded against its own origin
// (given as Unix nanoseconds), renumbering their identifiers so they cannot
// collide with this tracer's.
func (t *tracer) absorb(spans []span, originUnix int64) {
	if t == nil || len(spans) == 0 {
		return
	}
	shift := originUnix - t.origin.UnixNano()
	base := t.nextID.Add(int64(len(spans)) + 1<<32)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range spans {
		s.ID += base
		if s.Parent != 0 {
			s.Parent += base
		}
		s.Start += shift
		s.End += shift
		if len(t.spans) < maxSpans {
			t.spans = append(t.spans, s)
		} else {
			t.dropped++
		}
	}
}

// selfTimes returns each layer's self time: the summed duration of its
// spans minus the part of each span's interval that its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		self[s.Layer] += time.Duration(s.End - s.Start - covered(kids[s.ID], s.Start, s.End))
	}
	return self
}

// covered returns how much of [lo, hi] the union of the spans' intervals
// covers; concurrent children count once.
func covered(spans []span, lo, hi int64) int64 {
	if len(spans) == 0 {
		return 0
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b <= a {
			continue
		}
		if a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// writeSelfTimes prints the per-layer self-time table, largest first.
func writeSelfTimes(w io.Writer, spans []span) {
	self := selfTimes(spans)
	layers := make([]string, 0, len(self))
	var total time.Duration
	for l, d := range self {
		layers = append(layers, l)
		total += d
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	fmt.Fprintf(w, "  %-10s %12s %7s\n", "layer", "self time", "share")
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = 100 * float64(self[l]) / float64(total)
		}
		fmt.Fprintf(w, "  %-10s %12s %6.1f%%\n", l, self[l].Round(time.Microsecond), share)
	}
}

// chromeEvent is one Chrome trace-event object (the JSON array format that
// Perfetto and chrome://tracing load).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes spans as complete ("X") events, one track per
// (process, lane), with the layer as the event category.
func writeChromeTrace(w io.Writer, spans []span, processes map[int]string) error {
	events := make([]chromeEvent, 0, len(spans)+len(processes))
	for pid, name := range processes {
		events = append(events, chromeEvent{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": name}})
	}
	for _, s := range spans {
		args := map[string]any{"id": s.ID, "layer": s.Layer}
		if s.Parent != 0 {
			args["parent"] = s.Parent
		}
		if s.Req != 0 {
			args["req"] = s.Req
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X", PID: s.PID, TID: s.Lane,
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3, Args: args,
		})
	}
	return json.NewEncoder(w).Encode(events)
}
