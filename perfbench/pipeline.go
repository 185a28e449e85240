package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	broadband "github.com/nwca/broadband"
	"github.com/nwca/broadband/internal/golden"
)

// slugs are the registry artifacts' short names, in registry order.
func slugs() []string {
	var out []string
	for _, e := range broadband.Experiments() {
		out = append(out, golden.Slug(e.ID))
	}
	return out
}

// pipeline is the researcher path of the repro workload.
type pipeline struct {
	r       *run
	chk     *checker
	cfg     broadband.WorldConfig
	aseeds  []uint64 // analysis seeds each pass runs all artifacts at
	workers int
}

// passStats is what one pass measured.
type passStats struct {
	wall    time.Duration
	upload  time.Duration // save + load
	queries []float64     // each artifact's compute time, ms, registry order per analysis seed
}

// analysisSeeds are the matching seeds of a pass: the golden seed, whose
// reports are compared with the goldens, and two seeds from the workload
// seed, whose reports get the manifest's scale-invariant checks.
func analysisSeeds(seed uint64) []uint64 { return []uint64{goldenSeed, seed, seed + 1} }

// runPipeline runs the repro workload. It builds the golden world
// config: other world seeds make Table 3 fail for want of matched pairs,
// so the workload seed picks the analysis seeds instead.
func (r *run) runPipeline(ctx context.Context, tr *Tracer) error {
	p := &pipeline{r: r, cfg: goldenWorld(), workers: runtime.NumCPU(), aseeds: analysisSeeds(r.seed)}

	if err := r.repeatSetup(func(int) error { return p.setup() }); err != nil {
		return err
	}

	if err := resetPeakRSS(); err != nil {
		r.note("peak RSS covers set-up too: %v", err)
	}
	var passes []passStats
	for start := time.Now(); len(passes) == 0 || time.Since(start) < r.seconds; {
		passes = append(passes, p.pass(ctx, nil, len(passes)))
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return err
	}
	var walls, uploads, queries []float64
	byArtifact := make([][]float64, len(slugs()))
	for _, ps := range passes {
		walls = append(walls, ps.wall.Seconds())
		uploads = append(uploads, ms(ps.upload))
		queries = append(queries, ps.queries...)
		for k, q := range ps.queries {
			byArtifact[k%len(byArtifact)] = append(byArtifact[k%len(byArtifact)], q)
		}
	}
	// The artifacts' times form 20 separate clusters, and the pooled median
	// falls in the gap between two of them: it is the fastest or slowest
	// sample of a small cluster, so one slow sample moves it. The median of
	// the artifacts' own medians moves only with their typical times.
	var artifactMedians []float64
	for _, qs := range byArtifact {
		artifactMedians = append(artifactMedians, median(qs))
	}
	tail := TailOf(queries)
	r.metrics["wall_s"] = median(walls)
	r.metrics["query_p50_ms"] = median(artifactMedians)
	r.metrics["query_p99_ms"] = tail.Value
	r.metrics["upload_p50_ms"] = median(uploads)
	r.metrics["peak_rss_mb"] = rss
	r.note("%d untraced passes, wall_s %.4v; artifact latency %s", len(passes), walls, tail)

	if tr == nil {
		return nil
	}
	traced := p.pass(ctx, tr, len(passes))
	r.metrics["trace.overhead_frac"] = traced.wall.Seconds()/median(walls) - 1
	r.reconcileStages(tr.Spans(), traced.wall)
	r.layerMetrics(tr.Spans(), p.workers)
	return nil
}

// setup loads the checker: the goldens and the assertion manifest. It is
// not traced.
func (p *pipeline) setup() error {
	chk, err := loadChecker(p.r.root)
	p.chk = chk
	return err
}

// buildWorld calls synth through the public API under a span carrying the
// layer's resource counters.
func buildWorld(ctx context.Context, tr *Tracer, parent int, cfg broadband.WorldConfig) (*broadband.World, error) {
	u0 := sampleUsage()
	sp := tr.Begin(parent, 0, "synth.BuildWorldCtx")
	w, err := broadband.BuildWorldCtx(ctx, cfg)
	lu := u0.to(sampleUsage())
	args := lu.args()
	if err == nil {
		args["users"] = float64(len(w.Data.Users))
		args["skipped"] = float64(w.SkippedHouseholds())
	}
	tr.End(sp, args)
	if err != nil {
		return nil, fmt.Errorf("build world: %w", err)
	}
	return w, nil
}

// saveDataset saves d under dir; its span carries the megabytes written.
func saveDataset(ctx context.Context, tr *Tracer, parent int, d *broadband.Dataset, dir string) error {
	sp := tr.Begin(parent, 0, "dataset.SaveDatasetCtx")
	err := broadband.SaveDatasetCtx(ctx, d, dir, broadband.SaveOptions{})
	var size int64
	if err == nil {
		size, err = dirSize(dir)
	}
	tr.End(sp, map[string]float64{"mb": float64(size) / (1 << 20)})
	if err != nil {
		return fmt.Errorf("save dataset: %w", err)
	}
	return nil
}

func dirSize(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

// pass runs the timed path once: build → save → load, then at each
// analysis seed all 20 artifacts fanned out over the workers, then the
// checks. Its direct child spans are its stages.
func (p *pipeline) pass(ctx context.Context, tr *Tracer, i int) (st passStats) {
	r := p.r
	t0 := time.Now()
	ps := tr.Begin(0, 0, "pass")
	defer func() {
		st.wall = time.Since(t0)
		tr.End(ps, nil)
	}()

	w, err := buildWorld(ctx, tr, ps, p.cfg)
	r.op(errText(err))
	if err != nil {
		return st
	}
	dir := filepath.Join(r.work, fmt.Sprintf("pass-%d", i))
	defer os.RemoveAll(dir)
	ts := time.Now()
	err = saveDataset(ctx, tr, ps, &w.Data, dir)
	st.upload += time.Since(ts)
	r.op(errText(err))
	if err != nil {
		return st
	}
	tl := time.Now()
	sp := tr.Begin(ps, 0, "dataset.LoadDataset")
	d, err := broadband.LoadDataset(dir)
	tr.End(sp, nil)
	st.upload += time.Since(tl)
	r.op(errText(err))
	if err != nil {
		return st
	}

	for _, aseed := range p.aseeds {
		reps, errs, durs := p.fanout(ctx, tr, ps, d, aseed)
		for _, d := range durs {
			st.queries = append(st.queries, ms(d))
		}
		cs := tr.Begin(ps, 0, "check")
		for k, e := range broadband.Experiments() {
			if errs[k] != nil {
				r.op(fmt.Sprintf("%s seed %d: %v", e.ID, aseed, errs[k]))
				continue
			}
			r.op(p.check(tr, cs, e.ID, aseed, reps[k]))
		}
		tr.End(cs, nil)
	}
	return st
}

// fanout runs every registry artifact at aseed over the pool the way
// bbrepro -data does: workers take artifacts in registry order.
func (p *pipeline) fanout(ctx context.Context, tr *Tracer, parent int, d *broadband.Dataset, aseed uint64) ([]broadband.Report, []error, []time.Duration) {
	entries := broadband.Experiments()
	names := slugs()
	reps := make([]broadband.Report, len(entries))
	errs := make([]error, len(entries))
	durs := make([]time.Duration, len(entries))
	u0 := sampleUsage()
	fs := tr.Begin(parent, 0, "experiments.fanout")
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(entries) {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[k] = err
					continue
				}
				sp := tr.Begin(fs, w+1, "experiments."+names[k])
				t0 := time.Now()
				reps[k], errs[k] = broadband.Run(entries[k].ID, d, aseed)
				durs[k] = time.Since(t0)
				tr.End(sp, nil)
			}
		}(w)
	}
	wg.Wait()
	tr.End(fs, u0.to(sampleUsage()).args())
	return reps, errs, durs
}

// check encodes one report canonically and verifies it; it returns the
// problems found, joined, or "".
func (p *pipeline) check(tr *Tracer, parent int, id string, aseed uint64, rep broadband.Report) string {
	sp := tr.Begin(parent, 0, "golden.ToValue")
	v, enc, err := marshal(rep)
	tr.End(sp, nil)
	if err != nil {
		return fmt.Sprintf("%s seed %d: marshal: %v", id, aseed, err)
	}
	sp = tr.Begin(parent, 0, "golden.verify")
	probs := p.chk.verify(id, aseed, v, enc)
	tr.End(sp, nil)
	return strings.Join(probs, "; ")
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// reconcileStages checks that the traced pass's stage spans cover its
// wall time to within 5%.
func (r *run) reconcileStages(spans []Span, wall time.Duration) {
	var pass Span
	for _, s := range spans {
		if s.Name == "pass" {
			pass = s
		}
	}
	var sum time.Duration
	for _, s := range spans {
		if s.Parent == pass.ID && pass.ID != 0 {
			sum += s.Dur()
		}
	}
	gap := (sum - wall).Seconds() / wall.Seconds()
	r.note("reconciliation: stage spans sum to %.4f s of a %.4f s pass (%+.2f%%)", sum.Seconds(), wall.Seconds(), 100*gap)
	if gap < -0.05 || gap > 0.05 {
		r.bad("stage spans sum to %.4f s, not within 5%% of the pass's %.4f s", sum.Seconds(), wall.Seconds())
	}
}
