package netsim

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"github.com/nwca/broadband/internal/unit"
)

// referenceRun is FluidSim.Run as it stood before the idle skip: with no
// flow active it still stepped through every counter boundary. Kept
// verbatim as the reference the skipping loop must match exactly.
func referenceRun(s FluidSim, flows []*FluidFlow, horizon float64) (FluidResult, error) {
	if s.Capacity <= 0 {
		return FluidResult{}, fmt.Errorf("netsim: fluid capacity must be positive, got %v", s.Capacity)
	}
	if horizon <= 0 {
		return FluidResult{}, fmt.Errorf("netsim: fluid horizon must be positive, got %v", horizon)
	}
	interval := s.Interval
	if interval <= 0 {
		interval = 30
	}
	nIntervals := int(math.Ceil(horizon / interval))
	res := FluidResult{Counters: make([]unit.ByteSize, nIntervals)}

	// Sort flows by arrival; initialize remaining volumes.
	pending := make([]*FluidFlow, len(flows))
	copy(pending, flows)
	sort.Slice(pending, func(i, j int) bool { return pending[i].Arrival < pending[j].Arrival })
	for _, f := range pending {
		f.remaining = float64(f.Volume)
		f.done = false
	}

	active := make([]*FluidFlow, 0, 16)
	now := 0.0
	next := 0    // next pending arrival index
	carry := 0.0 // sub-byte remainder so counter truncation never accumulates

	// Allocation scratch reused by every maxMinFair step: the allocator
	// was the dominant cost of long fluid horizons (one rates + one unsat
	// slice per event step, hundreds of steps per simulated day).
	var scratch fairScratch

	for now < horizon {
		// Admit arrivals at the current time.
		for next < len(pending) && pending[next].Arrival <= now {
			if pending[next].remaining > 0 {
				active = append(active, pending[next])
			} else {
				pending[next].done = true
				pending[next].finish = now
				res.Completed++
			}
			next++
		}

		// Horizon of this step: next arrival, next counter boundary, horizon.
		stepEnd := horizon
		if next < len(pending) && pending[next].Arrival < stepEnd {
			stepEnd = pending[next].Arrival
		}
		boundary := (math.Floor(now/interval) + 1) * interval
		if boundary < stepEnd {
			stepEnd = boundary
		}

		if len(active) == 0 {
			now = stepEnd
			continue
		}

		rates := scratch.maxMinFair(s.Capacity.BitsPerSecond(), active)

		// Earliest completion under these rates.
		for i, f := range active {
			if rates[i] <= 0 {
				continue
			}
			t := now + f.remaining*8/rates[i]
			if t < stepEnd {
				stepEnd = t
			}
		}

		dt := stepEnd - now
		if dt <= 0 {
			// Numerical corner: force minimal progress to the boundary.
			dt = math.Nextafter(now, math.Inf(1)) - now
			stepEnd = now + dt
		}

		// Accumulate transfer into interval counters, splitting across a
		// boundary never happens because stepEnd ≤ next boundary.
		idx := int(now / interval)
		if idx >= nIntervals {
			idx = nIntervals - 1
		}
		moved := 0.0
		for i, f := range active {
			b := rates[i] * dt / 8
			if b > f.remaining {
				b = f.remaining
			}
			f.remaining -= b
			moved += b
		}
		moved += carry
		whole := math.Floor(moved)
		carry = moved - whole
		res.Counters[idx] += unit.ByteSize(whole)

		// Retire completed flows.
		live := active[:0]
		for _, f := range active {
			if f.remaining <= 1e-6 {
				f.remaining = 0
				f.done = true
				f.finish = stepEnd
				res.Completed++
			} else {
				live = append(live, f)
			}
		}
		active = live
		now = stepEnd
	}

	for _, c := range res.Counters {
		res.TotalBytes += c
	}
	return res, nil
}

// randomFlows draws a flow set with the shapes the idle skip must get
// right: idle gaps between bursts, arrivals exactly on counter boundaries
// and at zero, arrivals past the horizon, zero-volume and capped flows.
func randomFlows(seed int64, interval, horizon float64) []*FluidFlow {
	rng := newRand(seed)
	n := rng.IntN(40)
	flows := make([]*FluidFlow, n)
	burst := rng.Float64() * horizon
	for i := range flows {
		var at float64
		switch r := rng.Float64(); {
		case r < 0.2:
			at = float64(rng.IntN(int(horizon/interval)+2)) * interval // on a boundary
		case r < 0.3:
			at = horizon + rng.Float64()*horizon // past the horizon
		case r < 0.35:
			at = 0
		case r < 0.6:
			at = burst + rng.Float64()*120 // a burst after an idle gap
		default:
			at = rng.Float64() * horizon
		}
		vol := unit.ByteSize(rng.IntN(40 << 20))
		if rng.Float64() < 0.15 {
			vol = 0
		}
		var cap unit.Bitrate
		if rng.Float64() < 0.5 {
			cap = unit.KbpsOf(100 + 8000*rng.Float64())
		}
		flows[i] = &FluidFlow{ID: int64(i), Arrival: at, Volume: vol, Cap: cap}
	}
	return flows
}

func cloneFlows(flows []*FluidFlow) []*FluidFlow {
	out := make([]*FluidFlow, len(flows))
	for i, f := range flows {
		c := *f
		out[i] = &c
	}
	return out
}

// TestFluidIdleSkipMatchesStepping holds Run (and RunInto over a dirty,
// oversized buffer) to the stepping reference: identical counters, totals,
// completions and per-flow finish times.
func TestFluidIdleSkipMatchesStepping(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := newRand(1000 + seed)
		interval := []float64{30, 10, 7, 0}[seed%4]
		horizon := []float64{86400, 3600*5 + 7, 2 * 86400, 900}[rng.IntN(4)]
		sim := FluidSim{Capacity: unit.MbpsOf(0.5 + 30*rng.Float64()), Interval: interval}
		boundaries := interval
		if boundaries == 0 {
			boundaries = 30
		}
		base := randomFlows(seed, boundaries, horizon)

		refFlows := cloneFlows(base)
		want, werr := referenceRun(sim, refFlows, horizon)
		dirty := make([]unit.ByteSize, 2*int(horizon)+8)
		for i := range dirty {
			dirty[i] = 12345
		}
		for _, run := range []struct {
			name string
			run  func([]*FluidFlow) (FluidResult, error)
		}{
			{"Run", func(f []*FluidFlow) (FluidResult, error) { return sim.Run(f, horizon) }},
			{"RunInto", func(f []*FluidFlow) (FluidResult, error) { return sim.RunInto(dirty, f, horizon) }},
		} {
			flows := cloneFlows(base)
			got, gerr := run.run(flows)
			name := fmt.Sprintf("seed %d %s", seed, run.name)
			if (gerr != nil) != (werr != nil) {
				t.Fatalf("%s: error %v, reference %v", name, gerr, werr)
			}
			if got.Completed != want.Completed || got.TotalBytes != want.TotalBytes || len(got.Counters) != len(want.Counters) {
				t.Fatalf("%s: completed %d total %v len %d, reference %d %v %d", name,
					got.Completed, got.TotalBytes, len(got.Counters), want.Completed, want.TotalBytes, len(want.Counters))
			}
			for i := range got.Counters {
				if got.Counters[i] != want.Counters[i] {
					t.Fatalf("%s: counter %d = %v, reference %v", name, i, got.Counters[i], want.Counters[i])
				}
			}
			for i, f := range flows {
				gd, ga := f.Finished()
				wd, wa := refFlows[i].Finished()
				if gd != wd || math.Float64bits(ga) != math.Float64bits(wa) {
					t.Fatalf("%s: flow %d finished (%v, %v), reference (%v, %v)", name, i, gd, ga, wd, wa)
				}
			}
		}
	}
}
