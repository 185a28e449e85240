package dataset

import (
	"bufio"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"github.com/nwca/broadband/internal/fsx"
	"github.com/nwca/broadband/internal/market"
)

// CSV serialization. Rates are stored in Mbps, latencies in milliseconds,
// loss in percent and money in USD PPP — the units a human inspecting the
// files (or loading them into an external analysis tool) expects. Floats
// are written in shortest lossless form (strconv 'g', precision -1), so a
// save → load cycle reproduces every float64 bit-for-bit and a second save
// emits byte-identical files. Each table's columns are declared once, by
// its descriptor in table.go.

// WriteUsers streams users as CSV.
func WriteUsers(w io.Writer, users []User) error {
	return writeSharded(w, usersTable, users, 1)
}

// WriteSwitches streams service-change records as CSV.
func WriteSwitches(w io.Writer, switches []Switch) error {
	return writeSharded(w, switchesTable, switches, 1)
}

// WritePlans streams the plan survey as CSV.
func WritePlans(w io.Writer, plans []market.Plan) error {
	return writeSharded(w, plansTable, plans, 1)
}

// SaveOptions tunes how SaveDirWith writes a dataset.
type SaveOptions struct {
	// Gzip writes users.csv.gz, switches.csv.gz and plans.csv.gz instead of
	// the plain files. LoadDir detects either by extension.
	Gzip bool
	// Workers bounds the sharded parallel encoder (0 = GOMAXPROCS,
	// 1 = sequential). Output bytes are identical for every value.
	Workers int
}

// SaveDir writes the dataset's users, switches and plans under dir as
// users.csv, switches.csv and plans.csv, encoding across GOMAXPROCS
// workers (the bytes are identical to a sequential encode).
func (d *Dataset) SaveDir(dir string) error {
	return d.SaveDirWith(dir, SaveOptions{})
}

// SaveDirWith is SaveDir with explicit transport and parallelism options.
// Each table is staged in a temp file and renamed into place only after a
// complete write, so no failure mode leaves a partial table at a final
// path.
func (d *Dataset) SaveDirWith(dir string, opts SaveOptions) error {
	return d.SaveDirCtx(context.Background(), dir, opts)
}

// SaveDirCtx is SaveDirWith with cancellation: when ctx is cancelled the
// in-flight table write stops at the next row, its staging file is
// removed, and tables already committed remain complete — an interrupted
// save never leaves a partial artifact.
func (d *Dataset) SaveDirCtx(ctx context.Context, dir string, opts SaveOptions) error {
	if err := saveTable(ctx, dir, opts, usersTable, d.Users); err != nil {
		return err
	}
	if err := saveTable(ctx, dir, opts, switchesTable, d.Switches); err != nil {
		return err
	}
	return saveTable(ctx, dir, opts, plansTable, d.Plans)
}

// WriteSwitchesFileCtx writes switches.csv (or .csv.gz) under dir with the
// atomic staging contract of SaveDirCtx, leaving the other tables alone.
// The out-of-core builder uses it to place the switch panel next to a
// sharded user table without materializing a Dataset.
func WriteSwitchesFileCtx(ctx context.Context, dir string, opts SaveOptions, switches []Switch) error {
	return saveTable(ctx, dir, opts, switchesTable, switches)
}

// WritePlansFileCtx is WriteSwitchesFileCtx for the plan survey.
func WritePlansFileCtx(ctx context.Context, dir string, opts SaveOptions, plans []market.Plan) error {
	return saveTable(ctx, dir, opts, plansTable, plans)
}

// saveTable writes table t under dir (appending .gz per opts) atomically,
// encoding across opts.Workers shards and wrapping failures with the file
// name.
func saveTable[T any](ctx context.Context, dir string, opts SaveOptions, t *table[T], items []T) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	name := t.base
	if opts.Gzip {
		name += ".gz"
	}
	if err := writeTableCtx(ctx, filepath.Join(dir, name), opts.Gzip, func(w io.Writer) error {
		return writeSharded(w, t, items, opts.Workers)
	}); err != nil {
		return fmt.Errorf("dataset: writing %s: %w", name, err)
	}
	return nil
}

// ctxWriter fails every Write once its context is cancelled, bounding how
// much work a cancelled table write performs after the signal.
type ctxWriter struct {
	ctx context.Context
	w   io.Writer
}

func (c *ctxWriter) Write(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.w.Write(p)
}

// writeTableCtx stages path in a temp sibling and runs fn over a buffered
// (optionally gzip-compressed) writer, renaming into place only after a
// complete, flushed write. Any failure abandons the staging file, so the
// final path either keeps its previous content or does not exist — a later
// LoadDir can never trip over a partial table. Every write checks ctx, so a
// cancelled write stops at the next row.
func writeTableCtx(ctx context.Context, path string, gz bool, fn func(io.Writer) error) error {
	fp, err := fsx.CreateAtomic(path)
	if err != nil {
		return err
	}
	defer fp.Close()
	bw := bufio.NewWriterSize(&ctxWriter{ctx: ctx, w: fp}, 1<<16)
	var w io.Writer = bw
	var zw *gzip.Writer
	if gz {
		zw = gzip.NewWriter(bw)
		w = zw
	}
	err = fn(w)
	if err == nil && zw != nil {
		err = zw.Close()
	}
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		return err
	}
	return fp.Commit()
}

func checkHeader(got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("dataset: header has %d columns, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("dataset: header column %d is %q, want %q", i, got[i], want[i])
		}
	}
	return nil
}

// parser accumulates the first conversion error over a CSV record.
type parser struct {
	rec []string
	err error
}

func (p *parser) f64(i int) float64 {
	if p.err != nil {
		return 0
	}
	v, err := strconv.ParseFloat(p.rec[i], 64)
	if err != nil {
		p.err = fmt.Errorf("field %d %q: %w", i, p.rec[i], err)
	}
	return v
}

func (p *parser) int(i int) int {
	if p.err != nil {
		return 0
	}
	v, err := strconv.Atoi(p.rec[i])
	if err != nil {
		p.err = fmt.Errorf("field %d %q: %w", i, p.rec[i], err)
	}
	return v
}

func (p *parser) i64(i int) int64 {
	if p.err != nil {
		return 0
	}
	v, err := strconv.ParseInt(p.rec[i], 10, 64)
	if err != nil {
		p.err = fmt.Errorf("field %d %q: %w", i, p.rec[i], err)
	}
	return v
}

func (p *parser) boolAt(i int) bool {
	if p.err != nil {
		return false
	}
	v, err := strconv.ParseBool(p.rec[i])
	if err != nil {
		p.err = fmt.Errorf("field %d %q: %w", i, p.rec[i], err)
	}
	return v
}
