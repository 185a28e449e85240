package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around a
// public function of the program. Parent 0 marks a root span; spans of one
// benchmark run share Run.
type Span struct {
	ID, Parent int
	Run        int64
	Name       string
	Lane       int // display row in the trace viewer (worker or connection)
	Start, End time.Duration
	Args       map[string]float64
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs pay one nil check per call site.
type Tracer struct {
	epoch time.Time
	run   int64

	mu    sync.Mutex
	spans []Span
}

// NewTracer starts a trace whose spans all carry run id run.
func NewTracer(run int64) *Tracer { return &Tracer{epoch: time.Now(), run: run} }

// Begin opens a span and returns its id (0 on a nil tracer).
func (t *Tracer) Begin(parent, lane int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name, Lane: lane, Start: now})
	return len(t.spans)
}

// End closes span id, attaching optional counters measured across it.
func (t *Tracer) End(id int, args map[string]float64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Args = args
}

// Spans returns a copy of the recorded spans in start order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SelfTimes maps span id to its self time: the span's duration minus the
// part of that interval its children cover. Children that overlap (a
// parallel fan-out) count their union once.
func SelfTimes(spans []Span) map[int]time.Duration {
	kids := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent Span, children []Span) time.Duration {
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end time.Duration
	for _, v := range iv {
		if v[0] > end {
			end = v[0]
		}
		if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// WriteChrome writes the spans in Chrome trace-event JSON ("X" complete
// events, microsecond timestamps), which Perfetto and chrome://tracing
// open directly. Each event's args carry its parent, run id and self time.
func WriteChrome(w io.Writer, spans []Span) error {
	self := SelfTimes(spans)
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent, "run": s.Run, "self_us": us(self[s.ID])}
		for k, v := range s.Args {
			args[k] = v
		}
		events = append(events, event{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			Ts: us(s.Start), Dur: us(s.Dur()), Pid: 1, Tid: s.Lane, Args: args,
		})
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{events, "ms"}); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layerOf is the layer prefix of a span name ("dataset.LoadDataset" →
// "dataset"); spans without a prefix belong to the benchmark itself.
func layerOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return "bench"
}
