package main

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopTimesFromDueTime stalls one request of a fake server and
// checks that the requests queued behind it carry the wait in both their
// latency and the generator's lateness, while their own service time
// stays short.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const (
		stallAt = 5
		stall   = 200 * time.Millisecond
		spacing = 5 * time.Millisecond
		n       = 40
	)
	var seen atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if seen.Add(1) == stallAt+1 {
			time.Sleep(stall)
		}
		io.WriteString(w, "ok")
	}))
	defer srv.Close()

	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{Due: time.Duration(i) * spacing}
	}
	do := func(ctx context.Context, _ int, _ Op) Result {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
		if err != nil {
			return Result{Err: err}
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			return Result{Err: err}
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return Result{Status: resp.StatusCode}
	}
	results, st := RunOpenLoop(context.Background(), ops, 1, nil, do)
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for i, r := range results {
		if r.Err != nil || r.Status != http.StatusOK {
			t.Fatalf("request %d: status %d, err %v", i, r.Status, r.Err)
		}
		if r.Latency() < r.Lateness() || r.Lateness() < 0 {
			t.Fatalf("request %d: latency %v below lateness %v", i, r.Latency(), r.Lateness())
		}
	}
	if l := results[stallAt].Latency(); l < stall {
		t.Fatalf("stalled request latency %v, want at least %v", l, stall)
	}
	// The next request was due 5 ms after the stalled one was sent, so it
	// waited about 195 ms for the connection; a timer started at send
	// would report only its short service time.
	next := results[stallAt+1]
	if next.Lateness() < stall-2*spacing || next.Latency() < stall-2*spacing {
		t.Fatalf("request behind the stall: lateness %v, latency %v, want both near %v", next.Lateness(), next.Latency(), stall-spacing)
	}
	if svc := next.Done - next.Sent; svc > stall/2 {
		t.Fatalf("request behind the stall took %v to serve; the wait should sit in its lateness", svc)
	}
	if st.BacklogMax < int(stall/spacing)/2 {
		t.Fatalf("backlog max %d, want the queue behind the stall (about %d)", st.BacklogMax, stall/spacing)
	}
	if early := results[stallAt-1].Latency(); early > stall/2 {
		t.Fatalf("request before the stall has latency %v", early)
	}
}

func TestOpenLoopStopsDispatchOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ops := []Op{{Due: 0}, {Due: time.Hour}}
	do := func(context.Context, int, Op) Result { cancel(); return Result{Status: 200} }
	results, st := RunOpenLoop(ctx, ops, 2, nil, do)
	if len(results) != 1 || st.Sent != 1 {
		t.Fatalf("sent %d (results %d), want only the op due before the cancel", st.Sent, len(results))
	}
}

func TestClassifierKeysOnContentHash(t *testing.T) {
	c := NewClassifier()
	a, b := digestOf([]byte("a")), digestOf([]byte("b"))
	steps := []struct {
		key           contentKey
		digest        [32]byte
		hit, mismatch bool
	}{
		{contentKey{"h1", "table02", 1}, a, false, false},
		{contentKey{"h1", "table02", 1}, a, true, false},
		// The same artifact and seed on another panel is another answer.
		{contentKey{"h2", "table02", 1}, b, false, false},
		{contentKey{"h1", "table02", 2}, a, false, false},
		// The first panel comes back: its answers are hits again.
		{contentKey{"h1", "table02", 1}, a, true, false},
		{contentKey{"h2", "table02", 1}, a, true, true},
	}
	for i, s := range steps {
		hit, mismatch := c.Observe(s.key, s.digest)
		if hit != s.hit || mismatch != s.mismatch {
			t.Errorf("step %d %+v: hit=%v mismatch=%v, want %v %v", i, s.key, hit, mismatch, s.hit, s.mismatch)
		}
	}
	if keys := c.Keys(); len(keys) != 3 || keys[0] != (contentKey{"h1", "table02", 1}) {
		t.Errorf("Keys() = %v", keys)
	}
	if d, ok := c.Digest(contentKey{"h2", "table02", 1}); !ok || d != b {
		t.Errorf("Digest keeps the first answer")
	}
}

func TestScheduleMix(t *testing.T) {
	m := serveMix
	hot := hotKeys(rand.New(rand.NewSource(1)), []string{"fig01", "table02"}, []uint64{1, 2})
	build := func(seed int64) []Op {
		return schedule(rand.New(rand.NewSource(seed)), m, 20*time.Second, freshArtifacts, hot, 1000, []int{1, 2})
	}
	ops := build(7)
	var queries, fresh int
	var uploads []time.Duration
	seeds := map[uint64]bool{}
	for i, op := range ops {
		if i > 0 && op.Due < ops[i-1].Due {
			t.Fatalf("op %d due before op %d", i, i-1)
		}
		switch {
		case op.Kind == opUpload:
			if want := 1 + len(uploads)%2; op.Panel != want {
				t.Fatalf("upload %d of panel %d, want %d", len(uploads), op.Panel, want)
			}
			uploads = append(uploads, op.Due)
		case op.Seed >= 1000:
			if seeds[op.Seed] {
				t.Fatalf("fresh seed %d reused", op.Seed)
			}
			if op.Artifact != freshArtifacts[fresh%len(freshArtifacts)] {
				t.Fatalf("fresh ask %d is %s", fresh, op.Artifact)
			}
			seeds[op.Seed] = true
			fresh++
			queries++
		default:
			if op.Seed != 1 && op.Seed != 2 {
				t.Fatalf("hot query at seed %d", op.Seed)
			}
			queries++
		}
	}
	if queries != 2000 || fresh != 100 || len(uploads) != 14 {
		t.Fatalf("%d queries, %d fresh, %d uploads; want 2000, 100, 14", queries, fresh, len(uploads))
	}
	// The uploads' places in the 1.4 s first-ask cycle are evenly spaced
	// over the whole cycle, so no kind of first ask is spared an overlap.
	const cycle = 1400 * time.Millisecond
	var places []time.Duration
	for _, t := range uploads {
		places = append(places, t%cycle)
	}
	sort.Slice(places, func(i, j int) bool { return places[i] < places[j] })
	for i := 1; i < len(places); i++ {
		if gap := places[i] - places[i-1]; gap < 99*time.Millisecond || gap > 101*time.Millisecond {
			t.Fatalf("upload places in the cycle %v are not evenly spaced", places)
		}
	}

	split := func(ops []Op) (queries []Op, uploads []time.Duration) {
		for _, op := range ops {
			if op.Kind == opUpload {
				uploads = append(uploads, op.Due)
			} else {
				queries = append(queries, op)
			}
		}
		return queries, uploads
	}
	q7, u7 := split(ops)
	q8, u8 := split(build(8))
	if len(q8) != len(q7) || len(u8) != len(u7) {
		t.Fatalf("seed 8 schedules %d queries and %d uploads, seed 7 %d and %d", len(q8), len(u8), len(q7), len(u7))
	}
	sameKeys, sameUploads := true, true
	for i := range q7 {
		if q7[i].Due != q8[i].Due {
			t.Fatalf("query %d timing depends on the seed", i)
		}
		sameKeys = sameKeys && q7[i] == q8[i]
	}
	for i := range u7 {
		sameUploads = sameUploads && u7[i] == u8[i]
	}
	if sameKeys || sameUploads {
		t.Fatalf("seeds 7 and 8 drew the same hot keys (%v) or upload times (%v)", sameKeys, sameUploads)
	}
}

func TestSliceScheduleKeepsEveryOpAtItsTime(t *testing.T) {
	hot := hotKeys(rand.New(rand.NewSource(1)), []string{"fig01", "table02"}, []uint64{1})
	const d, n = 20 * time.Second, 15
	ops := schedule(rand.New(rand.NewSource(3)), serveMix, d, freshArtifacts, hot, 1000, []int{0, 1})
	parts := sliceSchedule(ops, d, n)
	if len(parts) != n {
		t.Fatalf("%d slices, want %d", len(parts), n)
	}
	var back []Op
	for k, part := range parts {
		if len(part) == 0 {
			t.Fatalf("slice %d is empty", k)
		}
		for _, op := range part {
			if op.Due < 0 || op.Due >= d/n {
				t.Fatalf("slice %d: op due %v, outside [0, %v)", k, op.Due, d/n)
			}
			op.Due += time.Duration(k) * (d / n)
			back = append(back, op)
		}
	}
	if len(back) != len(ops) {
		t.Fatalf("slices hold %d ops, schedule %d", len(back), len(ops))
	}
	for i := range ops {
		if back[i] != ops[i] {
			t.Fatalf("op %d is %+v after slicing, want %+v", i, back[i], ops[i])
		}
	}
}
