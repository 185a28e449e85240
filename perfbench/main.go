// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload through the program's public functions, checks the outputs,
// and prints one JSON result line:
//
//	bash perfbench/run.sh --workload repro --seed 1 --seconds 40 --trace 0
//
// Workloads: repro (world → disk → load → 20 artifacts at several
// analysis seeds → check) and serve (an open-loop client against a real
// bbserve process). With --trace 0 it reports the end-to-end metrics of
// untraced runs; with --trace 1 it makes a traced run as well, reports
// the per-layer metrics and writes the spans as Chrome trace-event JSON.
// See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// endToEnd lists the metrics of untraced runs, with units; BENCHMARK.json
// declares the same set.
var endToEnd = map[string]string{
	"setup_s":       "s",
	"wall_s":        "s",
	"query_p50_ms":  "ms",
	"query_p99_ms":  "ms",
	"upload_p50_ms": "ms",
	"peak_rss_mb":   "MB",
}

// perLayer lists the metrics of the traced run, with units. A layer the
// workload does not call reports 0.
var perLayer = func() map[string]string {
	m := map[string]string{
		"synth.build_s": "s", "synth.cpu_util": "ratio", "synth.alloc_mb": "MB",
		"synth.gc_cpu_s": "s", "synth.users": "count", "synth.skipped_households": "count",
		"dataset.save_s": "s", "dataset.save_mb": "MB", "dataset.load_s": "s",
		"dataset.ingest_s": "s", "dataset.quarantined_rows": "count",
		"experiments.busy_s": "s", "experiments.fanout_s": "s", "experiments.par_eff": "ratio",
		"experiments.alloc_mb": "MB", "experiments.gc_cpu_s": "s",
		"golden.marshal_s": "s", "golden.verify_s": "s",
		"serve.hit_p50_ms": "ms", "serve.hit_p99_ms": "ms", "serve.store_get_us": "us",
		"serve.miss_p50_ms": "ms", "serve.miss_p99_ms": "ms", "serve.hash_s": "s",
		"serve.store_put_s": "s", "serve.shed": "count", "serve.hit_frac": "ratio",
		"loadgen.late_p99_ms": "ms", "loadgen.backlog_max": "count",
		"trace.overhead_frac": "ratio",
	}
	for _, slug := range slugs() {
		m["experiments."+slug+"_s"] = "s"
	}
	return m
}()

// run is one benchmark invocation.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	root     string // checkout root
	bbserve  string // bbserve binary (serve workload)
	work     string // this run's scratch directory inside the checkout
	out      string // where traces are written

	attempted, failed int
	problems          []string // failed checks, printed on stderr
	metrics           map[string]float64
	notes             []string // extra human-readable lines for stderr
}

// op counts one attempted operation and, when problem is non-empty, its
// failure.
func (r *run) op(problem string) {
	r.attempted++
	if problem != "" {
		r.failed++
		r.problems = append(r.problems, problem)
	}
}

// bad records a failed check that is not an operation (a reconciliation).
func (r *run) bad(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	r := &run{metrics: make(map[string]float64)}
	flag.StringVar(&r.workload, "workload", "", "repro or serve")
	flag.Uint64Var(&r.seed, "seed", 1, "workload seed")
	secs := flag.Float64("seconds", 40, "how long the timed phase runs")
	trace := flag.Int("trace", 0, "1 = make a traced run and report per-layer metrics")
	flag.StringVar(&r.bbserve, "bbserve", "", "bbserve binary (serve workload)")
	flag.Parse()
	r.seconds = time.Duration(*secs * float64(time.Second))
	r.trace = *trace == 1

	if err := r.main(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// outDir holds each run's scratch directory and the traces, relative to
// the checkout root; run.sh keeps its build outputs beside it.
const outDir = ".bench_build/perfbench"

func (r *run) main() error {
	var err error
	if r.root, err = os.Getwd(); err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(r.root, "go.mod")); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	r.out = filepath.Join(r.root, outDir)
	if err := os.MkdirAll(r.out, 0o755); err != nil {
		return err
	}
	if r.work, err = os.MkdirTemp(r.out, "run-"); err != nil {
		return err
	}
	defer os.RemoveAll(r.work)

	// An interrupted run still stops bbserve and removes its scratch files.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var tr *Tracer
	if r.trace {
		tr = NewTracer(time.Now().UnixNano())
	}
	switch r.workload {
	case "repro":
		err = r.runPipeline(ctx, tr)
	case "serve":
		err = r.runServe(ctx, tr)
	default:
		return fmt.Errorf("unknown workload %q (want repro or serve)", r.workload)
	}
	if err != nil {
		return err
	}
	if tr != nil {
		if err := r.writeTrace(tr); err != nil {
			return err
		}
	}
	return r.report()
}

// writeTrace saves the spans for Perfetto and prints self time by span.
func (r *run) writeTrace(tr *Tracer) error {
	spans := tr.Spans()
	file := filepath.Join(r.out, fmt.Sprintf("trace-%s-seed%d.json", r.workload, r.seed))
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	if err := WriteChrome(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	self := SelfTimes(spans)
	byName := map[string]time.Duration{}
	for _, s := range spans {
		byName[s.Name] += self[s.ID]
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return byName[names[i]] > byName[names[j]] })
	r.note("trace: %d spans written to %s; self time by span:", len(spans), file)
	for _, n := range names {
		r.note("  %-32s %10.1f ms", n, ms(byName[n]))
	}
	return nil
}

// Set-up is repeated at least setupMin times, and while it has taken less
// than setupBudget in all, up to setupMax times, so a cheap set-up gets
// enough repeats for a steady median.
const (
	setupMin    = 3
	setupMax    = 50
	setupBudget = time.Second
)

// repeatSetup runs setup(i) the number of times above, or once in a
// traced run, and reports the median time as setup_s.
func (r *run) repeatSetup(setup func(i int) error) error {
	var times []float64
	var spent time.Duration
	for i := 0; i < setupMax; i++ {
		if r.trace && i == 1 || i >= setupMin && spent >= setupBudget {
			break
		}
		t0 := time.Now()
		if err := setup(i); err != nil {
			return err
		}
		d := time.Since(t0)
		spent += d
		times = append(times, d.Seconds())
	}
	r.metrics["setup_s"] = median(times)
	r.note("setup_s: median of %d set-ups %.4v", len(times), times)
	return nil
}

// metric is one entry of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human summary on stderr and the result line last on
// stdout.
func (r *run) report() error {
	table := endToEnd
	if r.trace {
		table = perLayer
	}
	out := make(map[string]metric, len(table))
	for name, unit := range table {
		v, ok := r.metrics[name]
		if !ok && !r.trace {
			r.bad("metric %s was not measured", name)
		}
		out[name] = metric{v, unit}
	}
	for _, n := range r.notes {
		fmt.Fprintln(os.Stderr, n)
	}
	names := make([]string, 0, len(out))
	for n := range out {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%-28s %14.6g %s\n", n, out[n].Value, out[n].Unit)
	}
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "CHECK FAILED: %s\n", p)
	}
	verdict := "all output checks passed"
	if len(r.problems) > 0 {
		verdict = fmt.Sprintf("%d check(s) failed", len(r.problems))
	}
	fmt.Fprintf(os.Stderr, "%s %s seed=%d: %s; %d of %d operations failed (fail_frac %.4g)\n",
		r.workload, map[bool]string{false: "untraced", true: "traced"}[r.trace], r.seed,
		verdict, r.failed, r.attempted, float64(r.failed)/float64(max(r.attempted, 1)))
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0 && r.attempted > 0, max(r.attempted, 1), r.failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// usage is a snapshot of the process's resource counters.
type usage struct {
	cpu   time.Duration // user + system, from getrusage
	alloc uint64        // cumulative heap allocation
	gcCPU float64       // estimated GC CPU seconds
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func sampleUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := append([]metrics.Sample(nil), usageSamples...)
	metrics.Read(s)
	return usage{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: s[0].Value.Uint64(),
		gcCPU: s[1].Value.Float64(),
	}
}

// layerUsage is what a layer consumed between two snapshots.
type layerUsage struct {
	cpu     time.Duration
	allocMB float64
	gcCPU   float64
}

func (a usage) to(b usage) layerUsage {
	return layerUsage{
		cpu:     b.cpu - a.cpu,
		allocMB: float64(b.alloc-a.alloc) / (1 << 20),
		gcCPU:   b.gcCPU - a.gcCPU,
	}
}

// args renders the counters for a span.
func (u layerUsage) args() map[string]float64 {
	return map[string]float64{"cpu_s": u.cpu.Seconds(), "alloc_mb": u.allocMB, "gc_cpu_s": u.gcCPU}
}

// peakRSSMB reads a process's high-water resident set size (VmHWM) in MiB;
// pid 0 means this process.
func peakRSSMB(pid int) (float64, error) {
	p := "self"
	if pid != 0 {
		p = strconv.Itoa(pid)
	}
	raw, err := os.ReadFile(filepath.Join("/proc", p, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", p)
}

// resetPeakRSS returns freed memory to the OS and restarts this process's
// VmHWM from its current RSS, so the timed phase's peak excludes set-up.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// layerMetrics derives the per-layer metrics from the spans: durations
// summed by span name, and the counters the spans carry.
func (r *run) layerMetrics(spans []Span, workers int) {
	dur := map[string]float64{}
	calls := map[string]int{}
	arg := map[string]float64{}
	for _, s := range spans {
		dur[s.Name] += s.Dur().Seconds()
		calls[s.Name]++
		for k, v := range s.Args {
			arg[s.Name+"/"+k] += v
		}
	}
	m := r.metrics
	if b := dur["synth.BuildWorldCtx"]; b > 0 {
		m["synth.build_s"] = b
		m["synth.cpu_util"] = arg["synth.BuildWorldCtx/cpu_s"] / (b * float64(runtime.NumCPU()))
		m["synth.alloc_mb"] = arg["synth.BuildWorldCtx/alloc_mb"]
		m["synth.gc_cpu_s"] = arg["synth.BuildWorldCtx/gc_cpu_s"]
		m["synth.users"] = arg["synth.BuildWorldCtx/users"] / float64(calls["synth.BuildWorldCtx"])
		m["synth.skipped_households"] = arg["synth.BuildWorldCtx/skipped"] / float64(calls["synth.BuildWorldCtx"])
	}
	m["dataset.save_s"] = dur["dataset.SaveDatasetCtx"]
	m["dataset.save_mb"] = arg["dataset.SaveDatasetCtx/mb"]
	m["dataset.load_s"] = dur["dataset.LoadDataset"]
	if n := calls["dataset.LoadDatasetRobust"]; n > 0 {
		m["dataset.ingest_s"] = dur["dataset.LoadDatasetRobust"] / float64(n)
		m["dataset.quarantined_rows"] = arg["dataset.LoadDatasetRobust/quarantined"]
	}
	var busy float64
	for _, s := range slugs() {
		m["experiments."+s+"_s"] = dur["experiments."+s]
		busy += dur["experiments."+s]
	}
	m["experiments.busy_s"] = busy
	if f := dur["experiments.fanout"]; f > 0 {
		m["experiments.fanout_s"] = f
		m["experiments.par_eff"] = busy / (f * float64(workers))
		m["experiments.alloc_mb"] = arg["experiments.fanout/alloc_mb"]
		m["experiments.gc_cpu_s"] = arg["experiments.fanout/gc_cpu_s"]
	}
	m["golden.marshal_s"] = dur["golden.ToValue"]
	m["golden.verify_s"] = dur["golden.verify"]
	if n := calls["serve.HashDataset"]; n > 0 {
		m["serve.hash_s"] = dur["serve.HashDataset"] / float64(n)
	}
	if n := calls["serve.DiskStore.Put"]; n > 0 {
		m["serve.store_put_s"] = dur["serve.DiskStore.Put"] / float64(n)
	}
}
