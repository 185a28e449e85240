package broadband_test

import (
	"bytes"
	"fmt"
	"testing"

	broadband "github.com/nwca/broadband"
)

// The columnar differential suite pins the tentpole contract of the
// struct-of-arrays refactor: a frozen dataset (one cached panel shared by
// every experiment) and an unfrozen twin of the same rows (every
// experiment builds its own columns from the row table) must produce
// byte-identical canonical artifacts, at any worker count. Any
// divergence — a column stored at different precision, a dictionary
// interned in a different order, an aggregation reordered — shows up here
// as a byte diff in the exact artifact that regressed.

// columnarDiffSeeds keep the suite cheap: the paper's date seed plus one
// unrelated seed.
var columnarDiffSeeds = []uint64{20140705, 7}

func TestColumnarRowEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("columnar differential builds two worlds; skipped with -short")
	}
	for _, seed := range columnarDiffSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			world, err := broadband.BuildWorld(broadband.WorldConfig{
				Seed:          seed,
				Users:         2500,
				FCCUsers:      600,
				Days:          2,
				SwitchTarget:  400,
				MinPerCountry: 30,
			})
			if err != nil {
				t.Fatal(err)
			}
			// rowOnly is a row-only twin of the frozen dataset: the same
			// rows, never frozen, so every experiment builds its own
			// uncached panel.
			rowOnly := broadband.Dataset{
				Users:    world.Data.Users,
				Switches: world.Data.Switches,
				Plans:    world.Data.Plans,
				Markets:  world.Data.Markets,
			}

			want := marshalReports(t, &world.Data, seed, 1)
			for _, c := range []struct {
				name    string
				d       *broadband.Dataset
				workers int
			}{
				{"panel/workers=4", &world.Data, 4},
				{"rows/workers=1", &rowOnly, 1},
				{"rows/workers=4", &rowOnly, 4},
			} {
				got := marshalReports(t, c.d, seed, c.workers)
				for id, b := range want {
					if !bytes.Equal(b, got[id]) {
						t.Errorf("%s: artifact %s differs from the panel-native sequential run", c.name, id)
					}
				}
			}
		})
	}
}
