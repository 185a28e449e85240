package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Error("explicit worker count not honored")
	}
	if Workers(0) != runtime.GOMAXPROCS(0) || Workers(-2) != runtime.GOMAXPROCS(0) {
		t.Error("non-positive counts should resolve to GOMAXPROCS")
	}
}

// TestForNCtxZeroWorkersIsConcurrent: workers <= 0 means GOMAXPROCS, not
// sequential. With GOMAXPROCS(2) the two calls must run at once: they meet
// on an unbuffered channel, which a plain loop never manages.
func TestForNCtxZeroWorkersIsConcurrent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	meet := make(chan struct{})
	err := ForNCtx(context.Background(), 0, 2, func(i int) error {
		timeout := time.After(5 * time.Second)
		if i == 0 {
			select {
			case meet <- struct{}{}:
				return nil
			case <-timeout:
			}
		} else {
			select {
			case <-meet:
				return nil
			case <-timeout:
			}
		}
		return fmt.Errorf("index %d never met its peer: workers=0 ran sequentially", i)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestForNRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		n := 153
		counts := make([]atomic.Int32, n)
		if err := ForN(workers, n, func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForNReturnsLowestIndexedError(t *testing.T) {
	errLow := errors.New("low")
	for _, workers := range []int{1, 4} {
		err := ForN(workers, 100, func(i int) error {
			switch i {
			case 17:
				return errLow
			case 80:
				return fmt.Errorf("high")
			}
			return nil
		})
		if !errors.Is(err, errLow) {
			t.Errorf("workers=%d: got %v, want the lowest-indexed error", workers, err)
		}
	}
}

func TestForNEmpty(t *testing.T) {
	if err := ForN(4, 0, func(int) error { return errors.New("boom") }); err != nil {
		t.Error("n=0 must not invoke fn")
	}
}

// TestForNRunsEverythingDespiteError pins ForN's run-everything contract:
// even with an early failure, every index executes exactly once. ForNCtx
// deliberately breaks this contract; this test guards against the two ever
// being merged.
func TestForNRunsEverythingDespiteError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := ForN(workers, 200, func(i int) error {
			ran.Add(1)
			if i == 0 {
				return errors.New("early")
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: error swallowed", workers)
		}
		if got := ran.Load(); got != 200 {
			t.Errorf("workers=%d: ForN ran %d of 200 indices; the contract is all of them", workers, got)
		}
	}
}

// TestForNCtxFailFast pins the fail-fast half of ForNCtx's contract: after
// the first error, dispatching stops, so with a failure at index 0 far fewer
// than n indices run. The exact count is scheduling-dependent but bounded by
// the in-flight window (one task per worker plus the failing one).
func TestForNCtxFailFast(t *testing.T) {
	errBoom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		block := make(chan struct{})
		err := ForNCtx(context.Background(), workers, 10_000, func(i int) error {
			ran.Add(1)
			if i == 0 {
				close(block) // release any peers already dispatched
				return errBoom
			}
			<-block // first-wave peers wait so index 0 always fails first
			return nil
		})
		if !errors.Is(err, errBoom) {
			t.Fatalf("workers=%d: got %v, want the injected error", workers, err)
		}
		// Workers stop dispatching once the failure lands; only tasks already
		// in flight (at most one per worker beyond the failing index, plus a
		// grab-then-check race per worker) may still run.
		if got := ran.Load(); got > int64(3*workers) {
			t.Errorf("workers=%d: %d indices ran after a first-task failure; fail-fast should stop dispatch", workers, got)
		}
	}
}

// TestForNCtxReturnsLowestIndexedError: among the indices that did run, the
// reported error is the lowest-indexed one, matching ForN's convention.
func TestForNCtxReturnsLowestIndexedError(t *testing.T) {
	errLow := errors.New("low")
	// workers=2 with both initial dispatches failing: whichever order the
	// scheduler picks, index 0's error must win.
	err := ForNCtx(context.Background(), 2, 2, func(i int) error {
		if i == 0 {
			return errLow
		}
		return fmt.Errorf("high")
	})
	if !errors.Is(err, errLow) {
		t.Errorf("got %v, want the lowest-indexed error", err)
	}
}

// TestForNCtxCancellation: a cancelled context stops dispatch and surfaces
// ctx.Err() when no task error occurred first.
func TestForNCtxCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		err := ForNCtx(ctx, workers, 10_000, func(i int) error {
			if ran.Add(1) == 1 {
				cancel() // cancel from inside the first task
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		if got := ran.Load(); got > int64(3*workers) {
			t.Errorf("workers=%d: %d indices ran after cancellation", workers, got)
		}
	}
}

// TestForNCtxPreCancelled: a context cancelled before the call runs nothing.
func TestForNCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := ForNCtx(ctx, 4, 100, func(i int) error { ran.Add(1); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// The concurrent path may dispatch at most one grab per worker before
	// observing cancellation; sequential dispatches none.
	if got := ran.Load(); got > 4 {
		t.Errorf("%d indices ran under a pre-cancelled context", got)
	}
}

// TestForNCtxCompletesCleanly: with no errors and no cancellation, ForNCtx
// behaves exactly like ForN.
func TestForNCtxCompletesCleanly(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		n := 153
		counts := make([]atomic.Int32, n)
		if err := ForNCtx(context.Background(), workers, n, func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}
