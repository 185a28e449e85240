// Command bbrepro regenerates every table and figure of the paper against a
// freshly generated synthetic world and prints the reproductions.
//
// Usage:
//
//	bbrepro                       # run everything at default world size
//	bbrepro -only "Table 2"       # one artifact
//	bbrepro -users 8000 -seed 7   # bigger world, different seed
//	bbrepro -list                 # enumerate artifacts
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	broadband "github.com/nwca/broadband"
	"github.com/nwca/broadband/internal/cli"
	"github.com/nwca/broadband/internal/experiments"
)

func main() {
	world := cli.RegisterWorldOrData(cli.GoldenWorld)
	var (
		only = flag.String("only", "", "run a single artifact, e.g. \"Table 2\" or \"Fig. 6\"")
		list = flag.Bool("list", false, "list artifacts and exit")
		ext  = flag.Bool("ext", false, "also run the extension analyses (beyond the paper's artifacts)")
	)
	flag.Parse()

	if *list {
		for _, e := range broadband.Experiments() {
			fmt.Printf("%-9s %s\n", e.ID, e.Title)
		}
		for _, e := range broadband.ExtensionExperiments() {
			fmt.Printf("%-9s %s\n", e.ID, e.Title)
		}
		return
	}

	// Ctrl-C / SIGTERM cancels generation and the experiment fan-out.
	ctx, stop := cli.Context()
	defer stop()

	start := time.Now()
	data, err := world.Dataset(ctx, "bbrepro")
	if err != nil {
		cli.Exit("bbrepro", err, 1)
	}
	fmt.Fprintf(os.Stderr, "bbrepro: dataset ready in %v (%d users, %d switches, %d plans)\n\n",
		time.Since(start).Round(time.Millisecond),
		len(data.Users), len(data.Switches), len(data.Plans))

	if *only != "" {
		rep, err := broadband.Run(*only, data, world.Config.Seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bbrepro: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(rep.Render())
		return
	}
	entries := broadband.Experiments()
	if *ext {
		entries = append(entries, broadband.ExtensionExperiments()...)
	}
	// Reports come back in registry order whatever the worker interleaving.
	// Every failure is reported (not just the first) and any failure makes
	// the run exit non-zero.
	reports, errs, ctxErr := experiments.RunEach(ctx, entries, data, world.Config.Seed, world.Config.Workers)
	if ctxErr != nil {
		cli.Exit("bbrepro", ctxErr, 1)
	}
	failed := 0
	for i, e := range entries {
		if errs[i] != nil {
			fmt.Fprintf(os.Stderr, "bbrepro: %s: %v\n", e.ID, errs[i])
			failed++
			continue
		}
		fmt.Println(reports[i].Render())
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "bbrepro: %d of %d artifacts failed\n", failed, len(entries))
		os.Exit(1)
	}
}
