// Command bbgen generates the study's three synthetic datasets (end-host
// panel, gateway panel, retail-plan survey) and writes them as CSV files.
//
// Usage:
//
//	bbgen -out data/ -seed 1 -users 8000 -fcc 2000 -days 3 -switches 2000
//
// The output directory receives users.csv, switches.csv and plans.csv in
// the schema documented in internal/dataset.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	broadband "github.com/nwca/broadband"
	"github.com/nwca/broadband/internal/cli"
)

func main() {
	world := cli.RegisterWorld(broadband.WorldConfig{
		Seed: 1, Users: 8000, FCCUsers: 2000, Days: 3, SwitchTarget: 2000, MinPerCountry: 30,
	})
	var (
		out    = flag.String("out", "data", "output directory for the CSV files")
		ndt    = flag.Bool("ndt", false, "measure every line with the packet-level simulator (slow)")
		gz     = flag.Bool("gzip", false, "write gzip-compressed CSVs (users.csv.gz etc.; bbrepro -data reads either)")
		shards = flag.Int("shards", 0, "write the user panel out-of-core as N shard files (users-00000-of-0000N.csv …); 0 builds in memory. Resident memory stays bounded regardless of -users")
	)
	flag.Parse()

	// Ctrl-C / SIGTERM cancels generation and the save; writes are atomic,
	// so an interrupted bbgen leaves no partial table files behind.
	ctx, stop := cli.Context()
	defer stop()

	cfg := &world.Config
	if *ndt {
		cfg.Measurement = broadband.MeasureNDT
	}
	start := time.Now()
	if *shards > 0 {
		fmt.Fprintf(os.Stderr, "bbgen: generating world out-of-core (seed=%d, users=%d, shards=%d)...\n", cfg.Seed, cfg.Users, *shards)
		rep, err := broadband.BuildWorldSharded(ctx, *cfg, broadband.ShardSpec{Dir: *out, Shards: *shards, Gzip: *gz})
		if err != nil {
			cli.Exit("bbgen", err, 1)
		}
		if n := rep.SkippedHouseholds(); n > 0 {
			fmt.Fprintf(os.Stderr, "bbgen: %d households skipped (no affordable plan after every redraw)\n", n)
		}
		fmt.Fprintf(os.Stderr, "bbgen: wrote %d users (%d shards), %d switches, %d plans to %s in %v (peak RSS %s)\n",
			rep.Users, len(rep.ShardFiles), rep.Switches, rep.Plans, *out,
			time.Since(start).Round(time.Millisecond), cli.PeakRSS())
		return
	}
	data, err := world.Dataset(ctx, "bbgen")
	if err != nil {
		cli.Exit("bbgen", err, 1)
	}
	if err := broadband.SaveDatasetCtx(ctx, data, *out, broadband.SaveOptions{Gzip: *gz, Workers: cfg.Workers}); err != nil {
		cli.Exit("bbgen", err, 1)
	}
	fmt.Fprintf(os.Stderr, "bbgen: wrote %d users, %d switches, %d plans to %s in %v\n",
		len(data.Users), len(data.Switches), len(data.Plans), *out,
		time.Since(start).Round(time.Millisecond))
}
