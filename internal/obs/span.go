package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"wavnet/internal/sim"
)

// Trace is a bounded in-memory span recorder stamped with sim.Time.
// Every method on Trace and Span is safe on a nil receiver: wiring a
// nil *Trace through a Config disables tracing with no call-site
// guards.
type Trace struct {
	eng   *sim.Engine
	limit int

	spans     []*Span
	nextTrace uint64
	nextSpan  uint64
	dropped   uint64
}

// DefaultSpanLimit bounds the buffer when NewTrace is given no limit.
const DefaultSpanLimit = 16384

// NewTrace creates a recorder holding at most limit spans (<=0 uses
// DefaultSpanLimit); spans started past the limit still function as
// parents but are dropped from the buffer and counted.
func NewTrace(eng *sim.Engine, limit int) *Trace {
	if limit <= 0 {
		limit = DefaultSpanLimit
	}
	return &Trace{eng: eng, limit: limit}
}

// SpanEvent is one timestamped annotation inside a span.
type SpanEvent struct {
	At  sim.Time
	Msg string
}

// Span is one timed step of a multi-step flow. Spans started from the
// same root share a trace (causality) ID; a span records its start
// eagerly, so the buffer shows in-flight work, and closes with End.
type Span struct {
	tr *Trace

	name     string
	labels   Labels
	traceID  uint64
	id       uint64
	parentID uint64 // 0 = root
	start    sim.Time
	end      sim.Time
	ended    bool
	events   []SpanEvent
}

// Start opens a span. A nil parent starts a new causality tree; a
// non-nil parent threads its trace ID through. Nil-safe: a nil Trace
// returns a nil Span, and every Span method tolerates a nil receiver.
func (tr *Trace) Start(parent *Span, name string, labels Labels) *Span {
	if tr == nil {
		return nil
	}
	tr.nextSpan++
	sp := &Span{tr: tr, name: name, labels: labels, id: tr.nextSpan, start: tr.eng.Now()}
	if parent != nil {
		sp.traceID = parent.traceID
		sp.parentID = parent.id
	} else {
		tr.nextTrace++
		sp.traceID = tr.nextTrace
	}
	if len(tr.spans) >= tr.limit {
		tr.dropped++
	} else {
		tr.spans = append(tr.spans, sp)
	}
	return sp
}

// Event appends a timestamped annotation (nil-safe, no-op after End).
func (sp *Span) Event(format string, args ...any) {
	if sp == nil {
		return
	}
	msg := format
	if len(args) > 0 {
		msg = fmt.Sprintf(format, args...)
	}
	sp.events = append(sp.events, SpanEvent{At: sp.tr.eng.Now(), Msg: msg})
}

// End closes the span at the current sim time (nil-safe, idempotent).
func (sp *Span) End() {
	if sp == nil {
		return
	}
	if !sp.ended {
		sp.ended = true
		sp.end = sp.tr.eng.Now()
	}
}

// Name returns the span's name ("" on nil).
func (sp *Span) Name() string {
	if sp == nil {
		return ""
	}
	return sp.name
}

// SpanLabels returns the span's label set.
func (sp *Span) SpanLabels() Labels {
	if sp == nil {
		return Labels{}
	}
	return sp.labels
}

// TraceID returns the causality ID shared by the span's tree.
func (sp *Span) TraceID() uint64 {
	if sp == nil {
		return 0
	}
	return sp.traceID
}

// ID returns the span's own ID; ParentID is 0 for roots.
func (sp *Span) ID() uint64 {
	if sp == nil {
		return 0
	}
	return sp.id
}

// ParentID returns the parent span's ID (0 for roots).
func (sp *Span) ParentID() uint64 {
	if sp == nil {
		return 0
	}
	return sp.parentID
}

// StartTime reports when the span opened.
func (sp *Span) StartTime() sim.Time {
	if sp == nil {
		return 0
	}
	return sp.start
}

// EndTime reports when the span closed (0 while open).
func (sp *Span) EndTime() sim.Time {
	if sp == nil {
		return 0
	}
	return sp.end
}

// Ended reports whether End was called.
func (sp *Span) Ended() bool {
	if sp == nil {
		return false
	}
	return sp.ended
}

// Duration is end-start for closed spans (0 while open).
func (sp *Span) Duration() sim.Duration {
	if sp == nil {
		return 0
	}
	if !sp.ended {
		return 0
	}
	return sp.end.Sub(sp.start)
}

// Events returns a copy of the span's annotations.
func (sp *Span) Events() []SpanEvent {
	if sp == nil {
		return nil
	}
	return append([]SpanEvent(nil), sp.events...)
}

// HasEvent reports whether any annotation contains the substring.
func (sp *Span) HasEvent(substr string) bool {
	for _, ev := range sp.Events() {
		if strings.Contains(ev.Msg, substr) {
			return true
		}
	}
	return false
}

// Spans returns the recorded spans in start order (chronological: sim
// time is monotonic).
func (tr *Trace) Spans() []*Span {
	if tr == nil {
		return nil
	}
	return append([]*Span(nil), tr.spans...)
}

// Find returns the recorded spans with the given name, in start order.
func (tr *Trace) Find(name string) []*Span {
	var out []*Span
	for _, sp := range tr.Spans() {
		if sp.name == name {
			out = append(out, sp)
		}
	}
	return out
}

// Children returns the recorded direct children of a span, in start
// order.
func (tr *Trace) Children(parent *Span) []*Span {
	if parent == nil {
		return nil
	}
	var out []*Span
	for _, sp := range tr.Spans() {
		if sp.parentID == parent.id && sp.traceID == parent.traceID {
			out = append(out, sp)
		}
	}
	return out
}

// line renders one span for the text dump.
func (sp *Span) line() string {
	var b strings.Builder
	dur := "open"
	if sp.ended {
		dur = fmt.Sprintf("+%.3fms", float64(sp.end.Sub(sp.start))/1e6)
	}
	fmt.Fprintf(&b, "%s %-9s %s%s [trace %d span %d", sp.start, dur, sp.name, sp.labels, sp.traceID, sp.id)
	if sp.parentID != 0 {
		fmt.Fprintf(&b, " < %d", sp.parentID)
	}
	b.WriteByte(']')
	for _, ev := range sp.events {
		fmt.Fprintf(&b, "; %s %s", ev.At, ev.Msg)
	}
	return b.String()
}

// WriteTo dumps the buffer chronologically, one line per span.
func (tr *Trace) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for _, sp := range tr.Spans() {
		n, err := fmt.Fprintln(w, sp.line())
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Dump returns the chronological text form of the buffer.
func (tr *Trace) Dump() string {
	var b strings.Builder
	tr.WriteTo(&b)
	return b.String()
}

// spanJSON is the export shape of one span.
type spanJSON struct {
	Trace  uint64            `json:"trace"`
	Span   uint64            `json:"span"`
	Parent uint64            `json:"parent,omitempty"`
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns,omitempty"`
	Events []spanEventJSON   `json:"events,omitempty"`
}

type spanEventJSON struct {
	At  int64  `json:"at_ns"`
	Msg string `json:"msg"`
}

// MarshalJSON exports the buffer as a chronological span array.
func (tr *Trace) MarshalJSON() ([]byte, error) {
	spans := tr.Spans()
	rows := make([]spanJSON, 0, len(spans))
	for _, sp := range spans {
		row := spanJSON{
			Trace: sp.traceID, Span: sp.id, Parent: sp.parentID,
			Name: sp.name, Labels: labelMap(sp.labels), Start: int64(sp.start),
		}
		if sp.ended {
			row.End = int64(sp.end)
		}
		for _, ev := range sp.events {
			row.Events = append(row.Events, spanEventJSON{At: int64(ev.At), Msg: ev.Msg})
		}
		rows = append(rows, row)
	}
	return json.Marshal(rows)
}
