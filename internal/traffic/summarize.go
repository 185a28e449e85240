package traffic

import (
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/nwca/broadband/internal/unit"
)

// Summarize reduces a series to the paper's demand metrics under a sampling
// mask. Peak is the 95th percentile of observed interval rates.
func (s *Series) Summarize(mask SampleMask) (Summary, error) {
	if mask == nil {
		mask = GatewayMask
	}
	if len(s.Counters) == 0 {
		return Summary{}, fmt.Errorf("traffic: empty series")
	}
	if len(s.BTActive) != len(s.Counters) {
		return Summary{}, fmt.Errorf("traffic: series has %d counters but %d BitTorrent flags", len(s.Counters), len(s.BTActive))
	}
	sc := summaryScratch.Get().(*sampleScratch)
	defer summaryScratch.Put(sc)
	observed := sc.observed(mask, s.StartHour, s.Interval, len(s.Counters))
	// The means and the maximum accumulate rates in sample order, as a
	// pass over the rate slice would; the percentiles select on the
	// counters themselves (see p95).
	all, noBT := sc.all[:0], sc.noBT[:0]
	var sumAll, sumNoBT, maxRate float64
	for i, c := range s.Counters {
		if observed != nil && !observed[i] {
			continue
		}
		rate := float64(c.RateOver(s.Interval))
		if len(all) == 0 || rate > maxRate {
			maxRate = rate
		}
		sumAll += rate
		all = append(all, c)
		if !s.BTActive[i] {
			sumNoBT += rate
			noBT = append(noBT, c)
		}
	}
	sc.all, sc.noBT = all, noBT
	if len(all) == 0 {
		return Summary{}, fmt.Errorf("traffic: sampling mask observed no intervals")
	}
	sum := Summary{Samples: len(all)}
	sum.Mean = unit.Bitrate(sumAll / float64(len(all)))
	sum.Max = unit.Bitrate(maxRate)
	sum.Peak = unit.Bitrate(p95(all, s.Interval))
	if len(noBT) > 0 {
		sum.MeanNoBT = unit.Bitrate(sumNoBT / float64(len(noBT)))
		sum.PeakNoBT = unit.Bitrate(p95(noBT, s.Interval))
	}
	return sum, nil
}

// sampleScratch is one Summarize call's working memory: the observed
// counters with and without BitTorrent intervals, and the table of a mask
// that has no shared one. Pooled, so a world build allocates about one
// per worker instead of a pair of sample slices per user-epoch.
type sampleScratch struct {
	all, noBT []unit.ByteSize
	mask      []bool
}

var summaryScratch = sync.Pool{New: func() any { return new(sampleScratch) }}

// observed returns the mask table of the first n intervals of a series
// starting at startHour with the given interval: entry i is
// mask(math.Mod(startHour+i·interval/3600, 24)). Nil means every interval
// is observed. DasuMask's table is shared across calls; any other mask is
// evaluated into the scratch on every call.
func (sc *sampleScratch) observed(mask SampleMask, startHour, interval float64, n int) []bool {
	switch reflect.ValueOf(mask).Pointer() {
	case gatewayPC:
		return nil
	case dasuPC:
		return dasuObserved(startHour, interval, n)
	}
	sc.mask = fillMask(sc.mask, mask, startHour, interval, n)
	return sc.mask
}

// The code pointers of the package's own masks. A declared function
// shares its code with no other function value (closures of one literal
// share code with each other, never with a declared function), so pointer
// equality identifies these masks exactly.
var (
	gatewayPC = reflect.ValueOf(GatewayMask).Pointer()
	dasuPC    = reflect.ValueOf(DasuMask).Pointer()
)

// fillMask evaluates mask at the hour of day of each of the first n
// intervals, reusing dst's backing array when it is large enough. The
// hour expression is the one every interval was always sampled with, so
// the table agrees with it bit for bit at every index.
func fillMask(dst []bool, mask SampleMask, startHour, interval float64, n int) []bool {
	if cap(dst) < n {
		dst = make([]bool, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = mask(math.Mod(startHour+float64(i)*interval/3600, 24))
	}
	return dst
}

// dasuTable memoizes DasuMask's table. A world build summarizes every
// series with the same start hour and interval, so the mask is evaluated
// once per interval index per process, not once per sample. The table
// only grows (a prefix serves any shorter series), a table for another
// (startHour, interval) replaces it, and a published table is never
// written again, so readers need no lock. It caches a pure function: no
// caller can see which table it was served.
var dasuTable atomic.Pointer[maskTable]

type maskTable struct {
	startHour, interval float64
	observed            []bool
}

func dasuObserved(startHour, interval float64, n int) []bool {
	if t := dasuTable.Load(); t != nil && t.startHour == startHour && t.interval == interval && len(t.observed) >= n {
		return t.observed[:n]
	}
	t := &maskTable{startHour: startHour, interval: interval, observed: fillMask(nil, DasuMask, startHour, interval, n)}
	dasuTable.Store(t)
	return t.observed
}

// p95 is the 95th percentile, with linear interpolation (type 7), of the
// rates the counters xs represent over interval. It reorders xs in place;
// callers own their sample slices.
//
// It needs two order statistics, not a sorted slice, so it selects them:
// after selectRank, xs[lo] is the counter a sort would put at lo, and the
// least counter after it is the one a sort would put at lo+1. A counter's
// rate is a non-decreasing function of the counter (a conversion, a
// multiplication and a division, each correctly rounded), so these are
// the rates a sort of the rates would put at lo and lo+1, and the
// interpolation below gets the same operands and the same bits.
func p95(xs []unit.ByteSize, interval float64) float64 {
	h := 0.95 * float64(len(xs)-1)
	lo := int(h)
	selectRank(xs, lo)
	at := float64(xs[lo].RateOver(interval))
	if lo+1 >= len(xs) {
		return at
	}
	next := xs[lo+1]
	for _, c := range xs[lo+2:] {
		next = min(next, c)
	}
	frac := h - float64(lo)
	return at + frac*(float64(next.RateOver(interval))-at)
}

// selectRank reorders xs so that xs[k] holds the value of rank k, with no
// greater value before it and no smaller one after it. It is a quickselect
// with a three-way partition, so the long run of zero counters an idle
// household leaves settles in one pass. Should the median-of-three pivots
// degrade, it sorts what is left.
func selectRank(xs []unit.ByteSize, k int) {
	lo, hi := 0, len(xs)
	for budget := 2 * bits.Len(uint(len(xs))); hi-lo > 12; budget-- {
		if budget == 0 {
			slices.Sort(xs[lo:hi])
			return
		}
		a, b, c := xs[lo], xs[lo+(hi-lo)/2], xs[hi-1]
		p := max(min(a, b), min(max(a, b), c)) // median of three
		// [lo,lt) < p, [lt,i) == p, [gt,hi) > p.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch x := xs[i]; {
			case x < p:
				xs[lt], xs[i] = x, xs[lt]
				lt++
				i++
			case x > p:
				gt--
				xs[i], xs[gt] = xs[gt], x
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return
		}
	}
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
