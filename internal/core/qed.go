package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/randx"
)

// Quasi-experimental design (QED): the alternative the paper weighs against
// natural experiments (Krishnan & Sitaraman's stream-quality study). Where
// nearest-neighbor matching finds, for each treated unit, its closest
// control under a caliper, QED stratifies both populations into discrete
// confounder cells and pairs treated/control units within identical cells.
// Results should broadly agree; QED trades some pair yield (cells must
// match exactly) for exact in-cell comparability and O(n) matching.

// QEDResult extends the standard experiment result with stratification
// diagnostics.
type QEDResult struct {
	Result
	// Cells is the number of populated strata; PairedCells how many
	// produced at least one pair.
	Cells       int
	PairedCells int
}

// String renders the result with its stratification summary.
func (r QEDResult) String() string {
	return fmt.Sprintf("%s [%d/%d cells]", r.Result.String(), r.PairedCells, r.Cells)
}

// QED is a stratified quasi-experiment specification.
type QED struct {
	Name      string
	Treatment dataset.View
	Control   dataset.View
	// Confounders are discretized into multiplicative bins of width
	// BinRatio (default 1.5; a pair in the same bin differs by at most
	// that factor — comparable to the 25% caliper at ratio 1.25²).
	Confounders []Confounder
	BinRatio    float64
	Outcome     dataset.Metric
	MinPairs    int
}

// cellKeys discretizes the confounder vector of every row in v, in view
// order.
func (q QED) cellKeys(v dataset.View, binRatio float64) []string {
	cols := make([][]float64, len(q.Confounders))
	for j, c := range q.Confounders {
		cols[j] = column(v, c.Value)
	}
	keys := make([]string, v.Len())
	var b strings.Builder
	for k, i := range v.Idx {
		b.Reset()
		for j, c := range q.Confounders {
			if j > 0 {
				b.WriteByte('|')
			}
			val := cols[j][i]
			switch {
			case val <= c.Floor:
				b.WriteString("lo") // everything under the floor is one bin
			default:
				idx := int(math.Floor(math.Log(val) / math.Log(binRatio)))
				fmt.Fprintf(&b, "%d", idx)
			}
		}
		keys[k] = b.String()
	}
	return keys
}

// Run stratifies, pairs within cells, and evaluates the hypothesis that
// treated units show higher outcomes.
func (q QED) Run(rng *randx.Source) (QEDResult, error) {
	if q.Outcome == nil {
		return QEDResult{}, fmt.Errorf("core: QED %q has no outcome metric", q.Name)
	}
	binRatio := q.BinRatio
	if binRatio <= 1 {
		binRatio = 1.5
	}
	minPairs := q.MinPairs
	if minPairs <= 0 {
		minPairs = 10
	}

	// Cells hold panel row indices of their treated and control members.
	type cell struct {
		treated []int32
		control []int32
	}
	cells := map[string]*cell{}
	for k, key := range q.cellKeys(q.Treatment, binRatio) {
		if cells[key] == nil {
			cells[key] = &cell{}
		}
		cells[key].treated = append(cells[key].treated, q.Treatment.Idx[k])
	}
	for k, key := range q.cellKeys(q.Control, binRatio) {
		if cells[key] == nil {
			cells[key] = &cell{}
		}
		cells[key].control = append(cells[key].control, q.Control.Idx[k])
	}
	tOut, cOut := column(q.Treatment, q.Outcome), column(q.Control, q.Outcome)

	// Deterministic cell order, then random pairing within each cell.
	keys := make([]string, 0, len(cells))
	for k := range cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	holds, pairs, pairedCells := 0, 0, 0
	for _, k := range keys {
		c := cells[k]
		n := len(c.treated)
		if len(c.control) < n {
			n = len(c.control)
		}
		if n == 0 {
			continue
		}
		pairedCells++
		tOrder := permute(len(c.treated), rng)
		cOrder := permute(len(c.control), rng)
		for i := 0; i < n; i++ {
			pairs++
			if tOut[c.treated[tOrder[i]]] > cOut[c.control[cOrder[i]]] {
				holds++
			}
		}
	}
	if pairs < minPairs {
		return QEDResult{}, fmt.Errorf("%w: QED %q paired %d, need %d", ErrTooFewPairs, q.Name, pairs, minPairs)
	}
	res, err := verdict(q.Name, holds, pairs)
	if err != nil {
		return QEDResult{}, err
	}
	return QEDResult{Result: res, Cells: len(cells), PairedCells: pairedCells}, nil
}

func permute(n int, rng *randx.Source) []int {
	if rng != nil {
		return rng.Perm(n)
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
