package main

import (
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"
)

func testFixture() *fixture {
	return &fixture{
		panels: []*panel{{name: "main", hash: "h0"}, {name: "alt-a", hash: "h1"}, {name: "alt-b", hash: "h2"}},
		known:  map[string]int{"h0": 0, "h1": 1, "h2": 2},
		cls:    NewClassifier(),
	}
}

func query(artifact string, seed uint64, hash, body string, lat time.Duration) Result {
	return Result{
		Op:     Op{Kind: opQuery, Artifact: artifact, Seed: seed},
		Done:   lat,
		Status: http.StatusOK, Hash: hash, Digest: digestOf([]byte(body)),
	}
}

func TestTallyClassifiesAndReconciles(t *testing.T) {
	fx := testFixture()
	fx.cls.Observe(contentKey{"h0", "fig01", 1}, digestOf([]byte("fig01@1"))) // warmed in set-up
	r := &run{metrics: map[string]float64{}, seconds: time.Second}
	results := []Result{
		query("fig01", 1, "h0", "fig01@1", time.Millisecond),
		query("table02", 1000, "h0", "t2", 100*time.Millisecond),
		{Op: Op{Kind: opUpload, Panel: 1}, Done: 200 * time.Millisecond, Status: http.StatusCreated, Hash: "h1"},
		query("table02", 1000, "h0", "t2", 2*time.Millisecond), // asked again: a hit
		{Op: Op{Kind: opQuery, Artifact: "fig01", Seed: 1}, Status: http.StatusTooManyRequests},
	}
	r.tally(fx, results, LoadStats{}, 1)
	if len(r.problems) != 1 || !strings.Contains(r.problems[0], "status 429") {
		t.Fatalf("problems %q, want only the refused query", r.problems)
	}
	if r.attempted != 5 || r.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 5 and 1", r.attempted, r.failed)
	}
	if r.metrics["serve.hit_frac"] != 2.0/3 || r.metrics["upload_p50_ms"] != 200 || r.metrics["serve.miss_p50_ms"] != 100 {
		t.Fatalf("metrics %v", r.metrics)
	}
	if fx.current != 1 {
		t.Fatalf("current panel %d after uploading panel 1", fx.current)
	}

	// The shed counter must account for every 429 the client saw.
	r = &run{metrics: map[string]float64{}, seconds: time.Second}
	r.tally(testFixture(), results, LoadStats{}, 0)
	if !hasProblem(r, "429s but /healthz shed moved by 0") {
		t.Fatalf("problems %q, want a shed mismatch", r.problems)
	}
}

func TestTallyCatchesWrongAnswers(t *testing.T) {
	fx := testFixture()
	r := &run{metrics: map[string]float64{}, seconds: time.Second}
	results := []Result{
		query("table02", 1000, "h0", "t2", time.Millisecond),
		query("table02", 1000, "h0", "other bytes", time.Millisecond),
		query("table02", 1001, "unknown", "t2", time.Millisecond),
		{Op: Op{Kind: opUpload, Panel: 2}, Status: http.StatusCreated, Hash: "h1"},
		{Op: Op{Kind: opQuery, Artifact: "fig02", Seed: 1}, Err: errors.New("connection reset")},
	}
	r.tally(fx, results, LoadStats{}, 0)
	for _, want := range []string{"bytes differ", "unknown content hash", "upload alt-b: content hash h1", "connection reset"} {
		if !hasProblem(r, want) {
			t.Errorf("no problem mentions %q in %q", want, r.problems)
		}
	}
	if r.failed != 4 {
		t.Errorf("failed %d, want 4", r.failed)
	}
}

func hasProblem(r *run, s string) bool {
	for _, p := range r.problems {
		if strings.Contains(p, s) {
			return true
		}
	}
	return false
}
