package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 1, Name: "pass", Start: 0, End: 100 * ms},
		// Two parallel children overlap in [30, 40): covered = [10, 60).
		{ID: 2, Parent: 1, Name: "experiments.a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "experiments.b", Start: 30 * ms, End: 60 * ms},
		// A child running past its parent counts only inside it.
		{ID: 4, Parent: 1, Name: "check", Start: 90 * ms, End: 120 * ms},
		{ID: 5, Parent: 3, Name: "golden.ToValue", Start: 35 * ms, End: 45 * ms},
	}
	self := SelfTimes(spans)
	want := map[int]time.Duration{1: 40 * ms, 2: 30 * ms, 3: 20 * ms, 4: 30 * ms, 5: 10 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

func TestTracerRecordsAndWritesChromeJSON(t *testing.T) {
	var none *Tracer
	if id := none.Begin(0, 0, "x"); id != 0 {
		t.Fatalf("nil tracer returned span id %d", id)
	}
	none.End(0, nil)

	tr := NewTracer(42)
	root := tr.Begin(0, 0, "pass")
	kid := tr.Begin(root, 1, "dataset.LoadDataset")
	tr.End(kid, map[string]float64{"mb": 3})
	tr.End(root, nil)
	spans := tr.Spans()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Run != 42 || spans[1].End < spans[1].Start {
		t.Fatalf("spans = %+v", spans)
	}

	var buf bytes.Buffer
	if err := WriteChrome(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Cat, Ph string
			Tid           int
			Args          map[string]float64
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	ev := doc.TraceEvents[1]
	if len(doc.TraceEvents) != 2 || ev.Ph != "X" || ev.Cat != "dataset" || ev.Tid != 1 ||
		ev.Args["parent"] != float64(root) || ev.Args["run"] != 42 || ev.Args["mb"] != 3 {
		t.Fatalf("events = %+v", doc.TraceEvents)
	}
}

// TestBenchmarkJSONDeclaresTheReportedMetrics keeps BENCHMARK.json and the
// metric tables this program reports in step.
func TestBenchmarkJSONDeclaresTheReportedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, table map[string]string) {
		got := map[string]string{}
		for _, m := range declared {
			got[m.Name] = m.Unit
		}
		for name, unit := range table {
			if got[name] != unit {
				t.Errorf("%s metric %s: BENCHMARK.json unit %q, reported unit %q", kind, name, got[name], unit)
			}
		}
		if len(got) != len(table) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", kind, len(got), len(table))
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if want := []string{"repro", "serve"}; len(names) != 2 || names[0] != want[0] || names[1] != want[1] {
		t.Errorf("workloads %v, want %v", names, want)
	}
}
