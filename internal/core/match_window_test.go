package core

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/randx"
)

// distance is the matching distance between treated panel row ti and
// control panel row ci: the sum of normalized confounder discrepancies
// (each in [0,1] at the caliper boundary), read from the confounder
// columns by index with the same arithmetic MatchWithStats inlines.
func (m Matcher) distance(tcols, ccols [][]float64, ti, ci int32, caliper float64) (float64, bool) {
	total := 0.0
	for j, c := range m.Confounders {
		va, vb := tcols[j][ti], ccols[j][ci]
		if !withinCaliper(va, vb, caliper, c.Floor) {
			return 0, false
		}
		hi := math.Max(math.Abs(va), math.Abs(vb))
		denom := caliper*hi + c.Floor
		if denom > 0 {
			total += math.Abs(va-vb) / denom
		}
	}
	return total, true
}

// referenceMatch is the pre-optimization O(T·C) greedy scan, kept as the
// behavioral oracle: the windowed matcher must select exactly the same
// pairs on any input.
func referenceMatch(m Matcher, treated, control dataset.View, rng *randx.Source) []Pair {
	caliper := m.Caliper
	if caliper <= 0 {
		caliper = DefaultCaliper
	}
	tcols := make([][]float64, len(m.Confounders))
	ccols := make([][]float64, len(m.Confounders))
	for j, c := range m.Confounders {
		tcols[j], ccols[j] = c.Value(treated.P), c.Value(control.P)
	}
	order := make([]int, treated.Len())
	for i := range order {
		order[i] = i
	}
	if rng != nil {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	used := make([]bool, control.Len())
	var pairs []Pair
	for _, k := range order {
		ti := treated.Idx[k]
		best := -1
		bestDist := math.Inf(1)
		for ck, ci := range control.Idx {
			if used[ck] {
				continue
			}
			d, ok := m.distance(tcols, ccols, ti, ci, caliper)
			if !ok {
				continue
			}
			if d < bestDist {
				bestDist = d
				best = ck
			}
		}
		if best >= 0 {
			used[best] = true
			pairs = append(pairs, Pair{Treated: ti, Control: control.Idx[best]})
		}
	}
	ids := treated.P.ID
	sort.SliceStable(pairs, func(i, j int) bool { return ids[pairs[i].Treated] < ids[pairs[j].Treated] })
	return pairs
}

// randomPopulation draws user rows with clustered covariates so calipers
// bind: duplicated values exercise the tie-break, and a wide tail
// exercises the window bounds.
func randomPopulation(rng *randx.Source, n int, idBase int64) []dataset.User {
	users := make([]dataset.User, n)
	for i := range users {
		rtt := 0.010 + 0.015*float64(rng.IntN(8)) // clustered: many exact ties
		if rng.Bool(0.2) {
			rtt = 0.010 + 0.490*rng.Float64() // tail
		}
		loss := 0.001 * float64(rng.IntN(5))
		price := 10 + 5*float64(rng.IntN(12))
		users[i] = mkUser(idBase+int64(i), rtt, loss*100, price, 5+45*rng.Float64(), 1+3*rng.Float64())
	}
	return users
}

// interleavedViews draws one shared panel and deals its rows at random to
// treated, control or neither, so both views are interleaved and
// non-contiguous — the shape every artifact passes the matcher.
func interleavedViews(rng *randx.Source, n int) (treated, control dataset.View) {
	p := dataset.BuildPanel(randomPopulation(rng.Split("rows"), n, 1))
	treated.P, control.P = p, p
	deal := rng.Split("deal")
	for i := 0; i < p.Len(); i++ {
		switch deal.IntN(5) {
		case 0, 1:
			treated.Idx = append(treated.Idx, int32(i))
		case 2, 3:
			control.Idx = append(control.Idx, int32(i))
		}
	}
	return treated, control
}

// samePairs fails the test unless got and want select the same rows, and
// checks that every pair resolves, via the panel's ID column, to a treated
// and a control user.
func samePairs(t *testing.T, label string, treated, control dataset.View, got, want []Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, reference %d", label, len(got), len(want))
	}
	inView := func(v dataset.View) map[int64]bool {
		ids := make(map[int64]bool, v.Len())
		for _, i := range v.Idx {
			ids[v.P.ID[i]] = true
		}
		return ids
	}
	tIDs, cIDs := inView(treated), inView(control)
	for i := range want {
		g, w := got[i], want[i]
		if g != w {
			t.Fatalf("%s: pair %d is (%d,%d), reference (%d,%d)", label, i,
				treated.P.ID[g.Treated], control.P.ID[g.Control],
				treated.P.ID[w.Treated], control.P.ID[w.Control])
		}
		if !tIDs[treated.P.ID[g.Treated]] || !cIDs[control.P.ID[g.Control]] {
			t.Fatalf("%s: pair %d (%d,%d) does not resolve to a treated and a control user", label, i,
				treated.P.ID[g.Treated], control.P.ID[g.Control])
		}
	}
}

// TestMatchWindowEquivalence fuzzes the windowed matcher against the full
// O(T·C) reference on randomized interleaved views, shuffled and
// unshuffled, across caliper settings including ones where the window
// binds hard.
func TestMatchWindowEquivalence(t *testing.T) {
	matchers := []Matcher{
		{Confounders: []Confounder{ConfounderRTT(), ConfounderLoss()}},
		{Confounders: []Confounder{ConfounderRTT(), ConfounderAccessPrice(), ConfounderCapacity()}, Caliper: 0.1},
		{Confounders: []Confounder{ConfounderAccessPrice()}, Caliper: 0.5},
		{Confounders: []Confounder{ConfounderLoss()}, Caliper: 0.05}, // first confounder hugs zero: Floor dominates
	}
	for seed := uint64(1); seed <= 8; seed++ {
		rng := randx.New(seed)
		treated, control := interleavedViews(rng, 300+rng.IntN(300))
		for mi, m := range matchers {
			for _, shuffled := range []bool{false, true} {
				var rngA, rngB *randx.Source
				if shuffled {
					rngA = randx.New(seed * 77)
					rngB = randx.New(seed * 77)
				}
				want := referenceMatch(m, treated, control, rngA)
				got, stats := m.MatchWithStats(treated, control, rngB)
				samePairs(t, fmt.Sprintf("seed %d matcher %d shuffled=%v", seed, mi, shuffled), treated, control, got, want)
				if stats.Treated != treated.Len() {
					t.Errorf("stats.Treated = %d, want %d", stats.Treated, treated.Len())
				}
				if stats.Unmatched != treated.Len()-len(got) {
					t.Errorf("stats.Unmatched = %d, want %d", stats.Unmatched, treated.Len()-len(got))
				}
			}
		}
	}
}

// TestMatchWindowNarrows checks the point of the optimization: on a
// clustered population the window must examine far fewer candidates than
// the full T·C cross product, without giving up any matches.
func TestMatchWindowNarrows(t *testing.T) {
	rng := randx.New(42)
	treated, control := views(randomPopulation(rng.Split("t"), 150, 1), randomPopulation(rng.Split("c"), 600, 10_000))
	m := Matcher{Confounders: []Confounder{ConfounderRTT(), ConfounderLoss()}, Caliper: 0.1}
	_, stats := m.MatchWithStats(treated, control, nil)
	full := treated.Len() * control.Len()
	if stats.CandidatesExamined >= full/2 {
		t.Errorf("window examined %d of %d candidate pairs; expected a large reduction", stats.CandidatesExamined, full)
	}
	if stats.WindowFallbacks != 0 {
		t.Errorf("unexpected window fallbacks: %d", stats.WindowFallbacks)
	}
	if stats.DroppedByCaliper == 0 {
		t.Error("expected some candidates dropped by the residual caliper checks")
	}
}

// TestMatchFallback covers the paths that cannot window: caliper ≥ 1 and an
// empty confounder list must still agree with the reference (full scan).
func TestMatchFallback(t *testing.T) {
	rng := randx.New(7)
	treated, control := views(randomPopulation(rng.Split("t"), 30, 1), randomPopulation(rng.Split("c"), 60, 1000))
	for _, m := range []Matcher{
		{Confounders: []Confounder{ConfounderRTT()}, Caliper: 1.5},
		{Confounders: nil},
	} {
		want := referenceMatch(m, treated, control, nil)
		got, stats := m.MatchWithStats(treated, control, nil)
		samePairs(t, "fallback", treated, control, got, want)
		if stats.WindowFallbacks != treated.Len() {
			t.Errorf("WindowFallbacks = %d, want %d", stats.WindowFallbacks, treated.Len())
		}
	}
}
