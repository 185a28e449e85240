package traffic

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/nwca/broadband/internal/randx"
	"github.com/nwca/broadband/internal/unit"
)

// referenceSummarize is Summarize as it stood before the mask table,
// selection p95 and pooled scratch: math.Mod on every sample, a fresh
// pair of sample slices, a full sort per percentile. The fast path must
// agree with it bit for bit.
func referenceSummarize(s *Series, mask SampleMask) (Summary, error) {
	if mask == nil {
		mask = GatewayMask
	}
	if len(s.Counters) == 0 {
		return Summary{}, fmt.Errorf("traffic: empty series")
	}
	all := make([]float64, 0, len(s.Counters))
	noBT := make([]float64, 0, len(s.Counters))
	for i, c := range s.Counters {
		hour := math.Mod(s.StartHour+float64(i)*s.Interval/3600, 24)
		if !mask(hour) {
			continue
		}
		rate := float64(c.RateOver(s.Interval))
		all = append(all, rate)
		if !s.BTActive[i] {
			noBT = append(noBT, rate)
		}
	}
	if len(all) == 0 {
		return Summary{}, fmt.Errorf("traffic: sampling mask observed no intervals")
	}
	sum := Summary{Samples: len(all)}
	sum.Mean = unit.Bitrate(mean(all))
	sum.Max = unit.Bitrate(maxOf(all))
	sum.Peak = unit.Bitrate(referenceP95(all))
	if len(noBT) > 0 {
		sum.MeanNoBT = unit.Bitrate(mean(noBT))
		sum.PeakNoBT = unit.Bitrate(referenceP95(noBT))
	}
	return sum, nil
}

func mean(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// referenceP95 is the sort-based type-7 percentile p95 replaced.
func referenceP95(xs []float64) float64 {
	sort.Float64s(xs)
	h := 0.95 * float64(len(xs)-1)
	lo := int(h)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := h - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// sameBits reports whether two floats are the same value bit for bit; any
// two NaNs count as the same (a sort does not pin which NaN lands where).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

func sameSummary(a, b Summary) bool {
	return a.Samples == b.Samples &&
		sameBits(float64(a.Mean), float64(b.Mean)) && sameBits(float64(a.Peak), float64(b.Peak)) &&
		sameBits(float64(a.MeanNoBT), float64(b.MeanNoBT)) && sameBits(float64(a.PeakNoBT), float64(b.PeakNoBT)) &&
		sameBits(float64(a.Max), float64(b.Max))
}

// TestMaskTableMatchesMod holds the mask table to the per-sample hour
// expression at every index of three days, for both package masks (the
// DasuMask table is the shared one) and a closure (the scratch path), at
// intervals that divide the day and one that does not.
func TestMaskTableMatchesMod(t *testing.T) {
	threshold := 7.25
	closure := func(h float64) bool { return h < threshold }
	masks := []struct {
		name string
		mask SampleMask
	}{{"gateway", GatewayMask}, {"dasu", DasuMask}, {"closure", closure}}
	sc := new(sampleScratch)
	for _, interval := range []float64{30, 10, 7} {
		for _, start := range []float64{0, 5.5} {
			n := int(math.Ceil(3 * 86400 / interval))
			for _, m := range masks {
				// A short lookup first, so the long one must grow the table.
				for _, size := range []int{n / 3, n, n / 2} {
					got := sc.observed(m.mask, start, interval, size)
					if got != nil && len(got) != size {
						t.Fatalf("%s interval %v start %v: table length %d, want %d", m.name, interval, start, len(got), size)
					}
					for i := 0; i < size; i++ {
						want := m.mask(math.Mod(start+float64(i)*interval/3600, 24))
						if obs := got == nil || got[i]; obs != want {
							t.Fatalf("%s interval %v start %v: index %d observed %v, want %v", m.name, interval, start, i, obs, want)
						}
					}
				}
			}
		}
	}
	// Closures of one literal share code: the scratch path must not serve
	// one closure's table to another.
	threshold = 20
	got := sc.observed(closure, 0, 30, 2880)
	if !got[2880*19/24] {
		t.Error("closure table reused across a changed closure")
	}
}

// TestSummarizeMatchesReference compares Summarize with the reference on
// generated series (with and without BitTorrent) and on hand-built series
// at other start hours and intervals, under every kind of mask.
func TestSummarizeMatchesReference(t *testing.T) {
	masks := map[string]SampleMask{
		"nil": nil, "gateway": GatewayMask, "dasu": DasuMask,
		"closure": func(h float64) bool { return h >= 3 && h < 19.5 },
	}
	check := func(name string, s *Series) {
		t.Helper()
		for mname, m := range masks {
			got, gerr := s.Summarize(m)
			want, werr := referenceSummarize(s, m)
			if (gerr != nil) != (werr != nil) {
				t.Fatalf("%s/%s: error %v, reference %v", name, mname, gerr, werr)
			}
			if !sameSummary(got, want) {
				t.Fatalf("%s/%s: summary %+v, reference %+v", name, mname, got, want)
			}
		}
	}
	for seed := uint64(1); seed <= 12; seed++ {
		g := &Generator{
			Capacity: unit.MbpsOf(float64(2 + 7*seed)),
			Quality:  goodQuality(),
			Profile:  Profile{NeedMbps: 2 + float64(seed%5), BTUser: seed%2 == 0, BTSessionsPerDay: 3},
		}
		s, err := g.Generate(2, randx.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("generated/%d", seed), s)
	}
	rng := randx.New(99)
	for _, interval := range []float64{30, 10, 7} {
		for _, start := range []float64{0, 5.5, 23.99} {
			n := int(3 * 86400 / interval)
			s := &Series{Interval: interval, StartHour: start, Counters: make([]unit.ByteSize, n), BTActive: make([]bool, n)}
			offset := 0
			if start > 20 {
				offset = 1 << 21 // all negative: Max is not floored at zero
			}
			for i := range s.Counters {
				if offset > 0 || rng.Float64() < 0.4 {
					s.Counters[i] = unit.ByteSize(rng.IntN(1<<20) - offset)
				}
				s.BTActive[i] = rng.Float64() < 0.2
			}
			check(fmt.Sprintf("built/%v/%v", interval, start), s)
		}
	}
}

// TestReleasedSeriesRegenerates checks that a series generated into
// released buffers (longer, shorter and dirty) equals a fresh one.
func TestReleasedSeriesRegenerates(t *testing.T) {
	g := &Generator{Capacity: unit.MbpsOf(20), Quality: goodQuality(), Profile: Profile{NeedMbps: 4, BTUser: true, BTSessionsPerDay: 3}}
	fresh := func(days int, seed uint64) ([]unit.ByteSize, []bool) {
		s, err := g.Generate(days, randx.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		return append([]unit.ByteSize(nil), s.Counters...), append([]bool(nil), s.BTActive...)
	}
	for _, c := range []struct {
		days int
		seed uint64
	}{{3, 1}, {1, 2}, {2, 3}, {3, 4}} {
		wantC, wantBT := fresh(c.days, c.seed)
		for i := 0; i < 3; i++ {
			s, err := g.Generate(c.days, randx.New(c.seed))
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(s.Counters) != fmt.Sprint(wantC) || fmt.Sprint(s.BTActive) != fmt.Sprint(wantBT) {
				t.Fatalf("days %d seed %d: regenerated series differs", c.days, c.seed)
			}
			for j := range s.Counters { // dirty the buffers before handing them back
				s.Counters[j], s.BTActive[j] = -1, true
			}
			s.Release()
		}
	}
}

// TestSummarizeConcurrent drives the shared DasuMask table and both pools
// from several goroutines at once: series of differing start hours,
// intervals and lengths replace and grow the table while others read it,
// and generated series are released while others are generated.
func TestSummarizeConcurrent(t *testing.T) {
	rng := randx.New(5)
	var series []*Series
	for _, interval := range []float64{30, 10} {
		for _, start := range []float64{0, 5.5} {
			for days := 1; days <= 3; days++ {
				n := int(float64(days) * 86400 / interval)
				s := &Series{Interval: interval, StartHour: start, Counters: make([]unit.ByteSize, n), BTActive: make([]bool, n)}
				for i := range s.Counters {
					s.Counters[i] = unit.ByteSize(rng.IntN(1 << 16))
					s.BTActive[i] = rng.Float64() < 0.1
				}
				series = append(series, s)
			}
		}
	}
	want := make([]Summary, len(series))
	for i, s := range series {
		var err error
		if want[i], err = referenceSummarize(s, DasuMask); err != nil {
			t.Fatal(err)
		}
	}
	gen := func(seed uint64) (*Series, error) { // a Generator is per goroutine: Generate sets fields
		g := &Generator{Capacity: unit.MbpsOf(8), Quality: goodQuality(), Profile: Profile{NeedMbps: 3, BTUser: true, BTSessionsPerDay: 3}}
		return g.Generate(1+int(seed%2), randx.New(seed))
	}
	wantGen := make([]Summary, 8)
	for seed := range wantGen {
		s, err := gen(uint64(seed))
		if err != nil {
			t.Fatal(err)
		}
		if wantGen[seed], err = referenceSummarize(s, DasuMask); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 40; k++ {
				i := (w*7 + k) % len(series)
				if got, err := series[i].Summarize(DasuMask); err != nil || !sameSummary(got, want[i]) {
					t.Errorf("series %d: summary %+v (%v), reference %+v", i, got, err, want[i])
					return
				}
				seed := (w + k) % len(wantGen)
				s, err := gen(uint64(seed))
				if err != nil {
					t.Error(err)
					return
				}
				got, err := s.Summarize(DasuMask)
				s.Release()
				if err != nil || !sameSummary(got, wantGen[seed]) {
					t.Errorf("generated seed %d: summary %+v (%v), reference %+v", seed, got, err, wantGen[seed])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// p95Seeds are the counter shapes selection must agree with the sort on:
// the shortest inputs, ties, all-equal, already sorted, reversed,
// zero-heavy (an idle household) and signed.
var p95Seeds = [][]unit.ByteSize{
	{3},
	{2, 1},
	{1, 1},
	{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5},
	{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25},
	{25, 24, 23, 22, 21, 20, 19, 18, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1},
	{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7},
	{1, 3, 3, 3, 2, 2, 2, 9, 9, 9, 1, 1, 3, 3, 3, 3, 2, 2, 9, 9, 9, 9, 1, 1, 1},
	{-4, 0, 7, -1 << 62, 1<<63 - 1, 0, 3, -4, 12, 5, 5, 0, 0, 1, -2, 8, 1 << 40},
}

// p95Intervals are the interval lengths the seeds are checked at: the
// Dasu cadence, awkward fractions, zero and negative (every rate 0),
// infinite (signed zero rates) and NaN.
var p95Intervals = []float64{30, 7, 0.1, 1e-300, 0, -30, math.Inf(1), math.NaN()}

// checkP95 holds selection p95 over counters to the reference: sort the
// counters' rates, interpolate.
func checkP95(t *testing.T, xs []unit.ByteSize, interval float64) {
	t.Helper()
	rates := make([]float64, len(xs))
	for i, c := range xs {
		rates[i] = float64(c.RateOver(interval))
	}
	want := referenceP95(rates)
	got := p95(append([]unit.ByteSize(nil), xs...), interval)
	if !sameBits(got, want) {
		t.Fatalf("p95(%v, %v) = %v (%#x), sort reference %v (%#x)", xs, interval, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func TestP95MatchesSort(t *testing.T) {
	for _, xs := range p95Seeds {
		for _, interval := range p95Intervals {
			checkP95(t, xs, interval)
		}
	}
	rng := randx.New(7)
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.IntN(600)
		levels := 1 + rng.IntN(60) // few levels: many ties
		xs := make([]unit.ByteSize, n)
		for i := range xs {
			switch {
			case trial%3 == 0:
				xs[i] = unit.ByteSize(rng.IntN(1 << 30))
			case rng.Float64() < 0.6:
				xs[i] = 0
			default:
				xs[i] = unit.ByteSize(rng.IntN(levels))
			}
		}
		if trial%5 == 0 {
			slices.Sort(xs)
		}
		checkP95(t, xs, p95Intervals[trial%len(p95Intervals)])
	}
}

// FuzzP95 compares selection p95 with the sort reference on arbitrary
// counters (8 little-endian bytes each) at an arbitrary interval.
func FuzzP95(f *testing.F) {
	for i, xs := range p95Seeds {
		b := make([]byte, 8*len(xs))
		for j, x := range xs {
			binary.LittleEndian.PutUint64(b[8*j:], uint64(x))
		}
		f.Add(b, p95Intervals[i%len(p95Intervals)])
	}
	f.Fuzz(func(t *testing.T, b []byte, interval float64) {
		xs := make([]unit.ByteSize, len(b)/8)
		for i := range xs {
			xs[i] = unit.ByteSize(binary.LittleEndian.Uint64(b[8*i:]))
		}
		if len(xs) == 0 {
			return
		}
		checkP95(t, xs, interval)
	})
}
