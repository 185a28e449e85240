package experiments

import (
	"errors"
	"fmt"
	"strconv"

	"github.com/nwca/broadband/internal/core"
)

// Comparison is one matched control/treatment row of a natural experiment:
// the two groups, the binomial result of H, and whether the world was too
// small to match enough pairs.
type Comparison[G any] struct {
	Control   G
	Treatment G
	Result    core.Result
	Skipped   bool // too few matched pairs in this world
}

// tooFew turns core.ErrTooFewPairs into a skipped row (zero result, true,
// nil) and passes every other outcome through, so a caller writes
// tooFew(exp.Run(rng)).
func tooFew[R any](r R, err error) (R, bool, error) {
	if errors.Is(err, core.ErrTooFewPairs) {
		var zero R
		return zero, true, nil
	}
	return r, false, err
}

// cells renders the statistic cells of one comparison row: the "% H holds"
// share right-aligned in its 10-wide column with the paper's "*" (not
// practically significant) hanging past it, the p-value and the pair
// count. A skipped row renders "-", "(too few)", "-".
func cells(r core.Result, skipped bool) (holds, p, pairs string) {
	if skipped {
		return fmt.Sprintf("%10s", "-"), "(too few)", "-"
	}
	star := ""
	if !r.Sig.Significant() {
		star = "*"
	}
	return fmt.Sprintf("%9.1f%%%s", 100*r.Fraction(), star), formatP(r.PValue()), strconv.Itoa(r.Pairs)
}
