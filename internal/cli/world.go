package cli

import (
	"context"
	"flag"
	"fmt"
	"os"

	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/synth"
)

// GoldenWorld is the world the checked-in goldens were generated from, and
// the default of every command that checks or reproduces them.
var GoldenWorld = synth.Config{
	Seed:          20140705,
	Users:         5000,
	FCCUsers:      1200,
	Days:          2,
	SwitchTarget:  900,
	MinPerCountry: 30,
}

// WorldFlags is the world-shape flag set shared by the commands that
// generate a world: -seed -users -fcc -days -switches -min-per-country
// -workers, plus -data for those that can analyze a saved dataset instead.
type WorldFlags struct {
	Config synth.Config
	data   string
}

// RegisterWorld registers the world flags on the default flag set,
// defaulting to def. Call before flag.Parse.
func RegisterWorld(def synth.Config) *WorldFlags {
	w := &WorldFlags{Config: def}
	c := &w.Config
	flag.Uint64Var(&c.Seed, "seed", def.Seed, "world seed (all data is deterministic in it)")
	flag.IntVar(&c.Users, "users", def.Users, "end-host users in the primary year")
	flag.IntVar(&c.FCCUsers, "fcc", def.FCCUsers, "US gateway-panel users")
	flag.IntVar(&c.Days, "days", def.Days, "observation days simulated per user")
	flag.IntVar(&c.SwitchTarget, "switches", def.SwitchTarget, "service-upgrade records")
	flag.IntVar(&c.MinPerCountry, "min-per-country", def.MinPerCountry, "minimum primary-year users per country")
	flag.IntVar(&c.Workers, "workers", def.Workers, "concurrent workers (0 = GOMAXPROCS, 1 = sequential; output is identical either way)")
	return w
}

// RegisterWorldOrData is RegisterWorld plus -data, a saved dataset
// directory to load instead of generating a world.
func RegisterWorldOrData(def synth.Config) *WorldFlags {
	w := RegisterWorld(def)
	flag.StringVar(&w.data, "data", "", "load a dataset directory written by bbgen instead of generating a world")
	return w
}

// Dataset loads the -data directory when one was given, else generates the
// world the flags describe, logging progress to stderr as prog.
func (w *WorldFlags) Dataset(ctx context.Context, prog string) (*dataset.Dataset, error) {
	if w.data != "" {
		fmt.Fprintf(os.Stderr, "%s: loading dataset from %s...\n", prog, w.data)
		return dataset.LoadDir(w.data)
	}
	fmt.Fprintf(os.Stderr, "%s: generating world (seed=%d, users=%d)...\n", prog, w.Config.Seed, w.Config.Users)
	world, err := synth.BuildCtx(ctx, w.Config)
	if err != nil {
		return nil, err
	}
	if n := world.SkippedHouseholds(); n > 0 {
		fmt.Fprintf(os.Stderr, "%s: %d households skipped (no affordable plan after every redraw)\n", prog, n)
	}
	return &world.Data, nil
}
