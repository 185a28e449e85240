package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/randx"
)

func TestLookup(t *testing.T) {
	t.Parallel()
	seen := map[string]bool{}
	for _, e := range append(Registry(), Extensions()...) {
		if seen[e.ID] {
			t.Errorf("ID %q is listed twice across the registry and the extensions", e.ID)
		}
		seen[e.ID] = true
		got, ok := Lookup(e.ID)
		if !ok || got.ID != e.ID || got.Title != e.Title {
			t.Errorf("Lookup(%q) = %+v, %v", e.ID, got, ok)
		}
	}
	for _, id := range []string{"", "Table 99", "Ext. Z", "table 1"} {
		if _, ok := Lookup(id); ok {
			t.Errorf("Lookup resolved the unknown ID %q", id)
		}
	}
}

// stubReport satisfies Report for the injected entries.
type stubReport struct{ id string }

func (r stubReport) ID() string     { return r.id }
func (r stubReport) Title() string  { return "stub" }
func (r stubReport) Render() string { return r.id + "\n" }

var errFail = errors.New("injected failure")

// stubEntries builds n entries whose runner calls hook(i) and then fails
// with errFail when i is divisible by three.
func stubEntries(n int, hook func(i int)) []Entry {
	entries := make([]Entry, n)
	for i := range entries {
		id := fmt.Sprintf("E%03d", i)
		entries[i] = Entry{ID: id, Run: func(*dataset.Dataset, *randx.Source) (Report, error) {
			hook(i)
			if i%3 == 0 {
				return nil, fmt.Errorf("%s: %w", id, errFail)
			}
			return stubReport{id: id}, nil
		}}
	}
	return entries
}

// TestRunEachCollectsEveryEntry: results land at their entry's index and a
// failing entry does not stop the rest.
func TestRunEachCollectsEveryEntry(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{1, 2, 0} {
		var ran atomic.Int32
		entries := stubEntries(40, func(int) { ran.Add(1) })
		reports, errs, ctxErr := RunEach(context.Background(), entries, &dataset.Dataset{}, 1, workers)
		if ctxErr != nil {
			t.Fatalf("workers=%d: ctxErr = %v", workers, ctxErr)
		}
		if got := ran.Load(); got != 40 {
			t.Errorf("workers=%d: %d of 40 entries ran; a failure must not stop the others", workers, got)
		}
		for i, e := range entries {
			if i%3 == 0 {
				if reports[i] != nil || !errors.Is(errs[i], errFail) {
					t.Errorf("workers=%d: entry %d = (%v, %v), want its failure", workers, i, reports[i], errs[i])
				}
				continue
			}
			if errs[i] != nil || reports[i] == nil || reports[i].ID() != e.ID {
				t.Errorf("workers=%d: entry %d = (%v, %v), want report %s", workers, i, reports[i], errs[i], e.ID)
			}
		}
	}
}

// TestRunEachCancellation: cancelling stops dispatch; every entry that ran
// has exactly one of a report and an error, and every entry that never ran
// has neither.
func TestRunEachCancellation(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{1, 2, 0} {
		const n = 500
		ctx, cancel := context.WithCancel(context.Background())
		var ran [n]atomic.Bool
		var count atomic.Int32
		entries := stubEntries(n, func(i int) {
			ran[i].Store(true)
			if count.Add(1) == 5 {
				cancel()
			}
		})
		reports, errs, ctxErr := RunEach(ctx, entries, &dataset.Dataset{}, 1, workers)
		cancel()
		if !errors.Is(ctxErr, context.Canceled) {
			t.Fatalf("workers=%d: ctxErr = %v, want context.Canceled", workers, ctxErr)
		}
		if got := count.Load(); got >= n {
			t.Errorf("workers=%d: all %d entries ran despite cancellation", workers, got)
		}
		for i := range entries {
			done := reports[i] != nil || errs[i] != nil
			if done != ran[i].Load() || (reports[i] != nil && errs[i] != nil) {
				t.Errorf("workers=%d: entry %d ran=%v but report=%v err=%v", workers, i, ran[i].Load(), reports[i], errs[i])
			}
		}
	}
}

// TestComputeSeedsByID: an artifact's RNG depends on (seed, ID) only.
func TestComputeSeedsByID(t *testing.T) {
	t.Parallel()
	draw := func(id string, seed uint64) float64 {
		var got float64
		e := Entry{ID: id, Run: func(_ *dataset.Dataset, rng *randx.Source) (Report, error) {
			got = rng.Float64()
			return stubReport{id: id}, nil
		}}
		if _, err := e.Compute(&dataset.Dataset{}, seed); err != nil {
			t.Fatal(err)
		}
		return got
	}
	if draw("A", 7) != draw("A", 7) {
		t.Error("Compute is not deterministic in (seed, ID)")
	}
	if draw("A", 7) == draw("B", 7) || draw("A", 7) == draw("A", 8) {
		t.Error("Compute does not separate the streams of different IDs or seeds")
	}
}
