// Command bbverify is the regression gate for the reproduction: it
// regenerates every registry artifact at the default (or given) world
// configuration, serializes each to its canonical JSON form, diffs the
// result against the checked-in goldens under testdata/golden/, and
// evaluates the assertion manifest that encodes EXPERIMENTS.md's shape
// scorecard. Any drift or violated assertion exits nonzero with a
// per-artifact report naming the drifted fields.
//
// Usage:
//
//	bbverify                          # verify goldens + assertions at the default world
//	bbverify -update                  # regenerate testdata/golden/ from this tree
//	bbverify -report drift.json       # also write the machine-readable drift report
//	bbverify -users 8000 -golden /tmp/g -manifest ""   # custom world, goldens only
//
// Exit status: 0 when everything verifies, 1 on drift or assertion
// violations, 2 when the harness itself fails (generation or an artifact
// erroring out).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	broadband "github.com/nwca/broadband"
	"github.com/nwca/broadband/internal/cli"
	"github.com/nwca/broadband/internal/experiments"
	"github.com/nwca/broadband/internal/fsx"
	"github.com/nwca/broadband/internal/golden"
)

func main() {
	world := cli.RegisterWorldOrData(cli.GoldenWorld)
	var (
		dir      = flag.String("golden", "testdata/golden", "golden artifact directory")
		manifest = flag.String("manifest", "testdata/assertions.json", "assertion manifest (empty to skip assertions)")
		update   = flag.Bool("update", false, "regenerate the golden files instead of verifying them")
		report   = flag.String("report", "", "also write the JSON drift report to this file")
	)
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "bbverify: "+format+"\n", args...)
		os.Exit(2)
	}

	// Ctrl-C / SIGTERM cancels generation and the fan-out; golden and
	// report writes are atomic, so an interrupted -update cannot leave a
	// half-written golden.
	ctx, stop := cli.Context()
	defer stop()

	start := time.Now()
	data, err := world.Dataset(ctx, "bbverify")
	if err != nil {
		cli.Exit("bbverify", err, 2)
	}

	entries := broadband.Experiments()
	reports, errs, ctxErr := experiments.RunEach(ctx, entries, data, world.Config.Seed, world.Config.Workers)
	if ctxErr != nil {
		cli.Exit("bbverify", ctxErr, 2)
	}
	// Name every failed artifact before giving up, not just the first.
	arts := make([]golden.Artifact, len(entries))
	failed := 0
	for i, e := range entries {
		if errs[i] != nil {
			fmt.Fprintf(os.Stderr, "bbverify: %s: %v\n", e.ID, errs[i])
			failed++
		}
		arts[i] = golden.Artifact{ID: e.ID, Obj: reports[i]}
	}
	if failed > 0 {
		fail("%d of %d artifacts failed", failed, len(entries))
	}
	fmt.Fprintf(os.Stderr, "bbverify: %d artifacts regenerated in %v (seed=%d, users=%d)\n",
		len(arts), time.Since(start).Round(time.Millisecond), world.Config.Seed, len(data.Users))

	var m *golden.Manifest
	if *manifest != "" {
		loaded, err := golden.LoadManifest(*manifest)
		if err != nil {
			fail("%v", err)
		}
		m = loaded
	}

	if *update {
		if err := golden.Update(arts, *dir); err != nil {
			fail("%v", err)
		}
		fmt.Fprintf(os.Stderr, "bbverify: wrote %d goldens to %s\n", len(arts), *dir)
	}

	r, err := golden.Verify(arts, *dir, m)
	if err != nil {
		fail("%v", err)
	}
	fmt.Print(r.Render())
	if *report != "" {
		if err := fsx.RetryWrite(context.Background(), fsx.RetryPolicy{}, *report, r.JSON(), 0o644); err != nil {
			fail("%v", err)
		}
	}
	if !r.OK() {
		fmt.Fprintf(os.Stderr, "bbverify: %d of %d artifacts drifted or violated assertions\n",
			r.Failed(), len(r.Artifacts))
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bbverify: all %d artifacts verified\n", len(r.Artifacts))
}
