package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"mime/multipart"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	broadband "github.com/nwca/broadband"
	"github.com/nwca/broadband/internal/golden"
	"github.com/nwca/broadband/internal/serve"
)

// The serve workload's traffic: one fixed open-loop rate over nproc
// connections. Every hot key is answered once per panel during set-up, so
// hot queries are cache hits whichever panel is current. Every
// FreshEvery-th query (one every 200 ms) is a first ask that computes an
// artifact: a client re-running one of the seed-dependent artifacts at a
// new matching seed. The fresh artifacts cycle every 1.4 s. Uploads come
// every 1.5 s, 0.1 s later in that cycle each time, so the 14 uploads of
// a 20 s run land evenly over the whole cycle: they overlap each kind of
// first ask about as often as uploads arriving at random would, but the
// number of overlaps does not vary from seed to seed. The seed sets where
// the first upload lands.
var serveMix = mix{
	Rate:        100,
	FreshEvery:  20,
	UploadEvery: 1500 * time.Millisecond,
	Zipf:        1.1,
}

// freshArtifacts are the artifacts whose answers depend on the analysis
// seed, in registry order, which is the order the workload first-asks them.
var freshArtifacts = []string{"table02", "fig06", "table03", "table06", "table07", "fig11", "table08"}

const (
	datasetName   = "bench"
	corruptRows   = 25   // user rows each alternate panel breaks
	coldPasses    = 15   // registry passes at fresh seeds that give wall_s
	recomputeKeys = 6    // answers recomputed in-process after the run
	storeGets     = 200  // DiskStore.Get calls timed in a traced set-up
	freshBase     = 1000 // fresh query seeds start here, above the hot seeds
)

// panel is one dataset the client uploads.
type panel struct {
	name  string
	body  []byte // multipart upload body
	ctype string
	hash  string             // HashDataset of the panel as ingested
	data  *broadband.Dataset // the panel as ingested, for recomputing
}

// fixture is one set-up of the serve workload: a running server whose
// cache holds every hot key for every panel.
type fixture struct {
	srv     *server
	client  *http.Client
	panels  []*panel // the two alternate panels
	hot     []hotKey
	known   map[string]int // content hash → panel index
	cls     *Classifier
	current int // panel the server's dataset name points at
}

func (r *run) runServe(ctx context.Context, tr *Tracer) error {
	if r.bbserve == "" {
		return errors.New("serve workload needs -bbserve")
	}
	conns := runtime.NumCPU()
	var fx *fixture
	defer func() {
		if fx != nil {
			fx.close(r)
		}
	}()
	err := r.repeatSetup(func(i int) error {
		if fx != nil {
			fx.close(r)
			fx = nil
		}
		var err error
		fx, err = r.setupServe(ctx, tr, i, conns)
		return err
	})
	if err != nil {
		return err
	}

	shed0, err := fx.shed(ctx)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(int64(r.seed)))
	ops := schedule(rng, serveMix, r.seconds, freshArtifacts, fx.hot, freshBase, []int{0, 1})
	results, ls, walls := fx.runTimed(ctx, r, tr, ops, conns, freshBase+uint64(len(ops)))
	shed1, err := fx.shed(ctx)
	if err != nil {
		return err
	}
	rss, err := peakRSSMB(fx.srv.cmd.Process.Pid)
	if err != nil {
		return err
	}
	r.metrics["peak_rss_mb"] = rss
	r.tally(fx, results, ls, shed1-shed0)

	// wall_s: a client asks for the whole registry at a fresh seed and
	// waits for every checked answer; in a traced run the same again with
	// spans, for the overhead.
	r.metrics["wall_s"] = median(walls)
	r.note("cold registry passes: %.4v s", walls)
	if tr != nil {
		traced := fx.coldPasses(ctx, r, tr, conns, freshBase+uint64(len(ops)+coldPasses), coldPasses)
		r.metrics["trace.overhead_frac"] = median(traced)/median(walls) - 1
	}
	fx.recompute(r, rng)
	if tr != nil {
		r.layerMetrics(tr.Spans(), conns)
	}
	return nil
}

// setupServe builds the golden world, derives the two alternate panels
// from its saved copy, starts bbserve and warms its cache with every hot
// key on both panels. Of set-up, a traced run traces only the in-process
// ingest, hash and store calls that give the serve-layer metrics.
func (r *run) setupServe(ctx context.Context, tr *Tracer, i, conns int) (*fixture, error) {
	dir := filepath.Join(r.work, fmt.Sprintf("serve-%d", i))
	w, err := buildWorld(ctx, nil, 0, goldenWorld())
	if err != nil {
		return nil, err
	}
	mainDir := filepath.Join(dir, "main")
	if err := saveDataset(ctx, nil, 0, &w.Data, mainDir); err != nil {
		return nil, err
	}
	w = nil
	fx := &fixture{
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
		}},
		known: make(map[string]int),
		cls:   NewClassifier(),
	}
	rng := rand.New(rand.NewSource(int64(r.seed)))
	for k, name := range []string{"alt-a", "alt-b"} {
		pdir := filepath.Join(dir, name)
		if err := corruptPanel(mainDir, pdir, rng, corruptRows); err != nil {
			return nil, err
		}
		p, err := loadPanel(tr, name, pdir)
		if err != nil {
			return nil, err
		}
		if _, dup := fx.known[p.hash]; dup {
			return nil, fmt.Errorf("panel %s has the same content hash as another panel", name)
		}
		fx.known[p.hash] = k
		fx.panels = append(fx.panels, p)
	}
	if tr != nil {
		if err := r.probeStore(tr, fx.panels[0], filepath.Join(dir, "probe-store")); err != nil {
			return nil, err
		}
	}
	fx.hot = hotKeys(rng, slugs(), []uint64{1})

	if fx.srv, err = startServer(ctx, r.bbserve, dir); err != nil {
		return nil, err
	}
	// Upload each panel and warm the hot keys on it; alt-b ends current.
	for k := range fx.panels {
		up, _ := RunOpenLoop(ctx, []Op{{Kind: opUpload, Panel: k}}, 1, nil, fx.do)
		for _, res := range up {
			r.op(fx.checkUpload(res))
		}
		warm := make([]Op, len(fx.hot))
		for j, h := range fx.hot {
			warm[j] = Op{Kind: opQuery, Artifact: h.Artifact, Seed: h.Seed}
		}
		got, _ := RunOpenLoop(ctx, warm, conns, nil, fx.do)
		for _, res := range got {
			_, problem := fx.classify(res)
			r.op(problem)
		}
	}
	return fx, nil
}

// corruptPanel copies the panel in src to dst with n user rows given a
// non-positive id, which the quarantine rejects as out of domain.
func corruptPanel(src, dst string, rng *rand.Rand, n int) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, f := range []string{"switches.csv", "plans.csv"} {
		b, err := os.ReadFile(filepath.Join(src, f))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, f), b, 0o644); err != nil {
			return err
		}
	}
	b, err := os.ReadFile(filepath.Join(src, "users.csv"))
	if err != nil {
		return err
	}
	lines := strings.SplitAfter(string(b), "\n")
	rows := len(lines) - 2 // header, and the empty string after the last newline
	for _, k := range rng.Perm(rows)[:n] {
		l := lines[k+1]
		lines[k+1] = "-1" + l[strings.IndexByte(l, ','):]
	}
	return os.WriteFile(filepath.Join(dst, "users.csv"), []byte(strings.Join(lines, "")), 0o644)
}

// loadPanel ingests a panel directory the way the server does and builds
// its upload body.
func loadPanel(tr *Tracer, name, dir string) (*panel, error) {
	sp := tr.Begin(0, 0, "dataset.LoadDatasetRobust")
	d, rep, err := broadband.LoadDatasetRobust(dir, broadband.QuarantineOptions{})
	var quarantined float64
	if rep != nil {
		quarantined = float64(len(rep.Diags))
	}
	tr.End(sp, map[string]float64{"quarantined": quarantined})
	if err != nil {
		return nil, fmt.Errorf("ingest %s: %w", name, err)
	}
	d.Freeze()
	sp = tr.Begin(0, 0, "serve.HashDataset")
	hash, err := serve.HashDataset(d)
	tr.End(sp, nil)
	if err != nil {
		return nil, err
	}
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	for _, f := range []string{"users.csv", "switches.csv", "plans.csv"} {
		b, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			return nil, err
		}
		part, err := mw.CreateFormFile(f, f)
		if err != nil {
			return nil, err
		}
		if _, err := part.Write(b); err != nil {
			return nil, err
		}
	}
	if err := mw.Close(); err != nil {
		return nil, err
	}
	return &panel{name: name, body: body.Bytes(), ctype: mw.FormDataContentType(), hash: hash, data: d}, nil
}

// probeStore times the storage layer in-process: one DiskStore.Put of p
// and storeGets Gets, each of which re-reads the CURRENT pointer.
func (r *run) probeStore(tr *Tracer, p *panel, root string) error {
	st, err := serve.NewDiskStore(root)
	if err != nil {
		return err
	}
	sp := tr.Begin(0, 0, "serve.DiskStore.Put")
	hash, err := st.Put(datasetName, p.data, nil)
	tr.End(sp, nil)
	if err != nil {
		return err
	}
	r.op(sameHash("DiskStore.Put", hash, p.hash))
	gets := make([]float64, 0, storeGets)
	for i := 0; i < storeGets; i++ {
		sp := tr.Begin(0, 0, "serve.DiskStore.Get")
		t0 := time.Now()
		e, ok := st.Get(datasetName)
		gets = append(gets, float64(time.Since(t0))/float64(time.Microsecond))
		tr.End(sp, nil)
		if !ok || e.Hash != p.hash {
			return errors.New("DiskStore.Get did not return the stored panel")
		}
	}
	r.metrics["serve.store_get_us"] = median(gets)
	return nil
}

func sameHash(what, got, want string) string {
	if got != want {
		return fmt.Sprintf("%s: content hash %.12s, want %.12s", what, got, want)
	}
	return ""
}

// do performs one request for the open loop.
func (fx *fixture) do(ctx context.Context, _ int, op Op) Result {
	var req *http.Request
	var err error
	if op.Kind == opUpload {
		p := fx.panels[op.Panel]
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, fx.srv.base+"/v1/datasets/"+datasetName, bytes.NewReader(p.body))
		if err == nil {
			req.Header.Set("Content-Type", p.ctype)
		}
	} else {
		req, err = http.NewRequestWithContext(ctx, http.MethodGet,
			fmt.Sprintf("%s/v1/datasets/%s/artifacts/%s?seed=%d", fx.srv.base, datasetName, op.Artifact, op.Seed), nil)
	}
	if err != nil {
		return Result{Err: err}
	}
	resp, err := fx.client.Do(req)
	if err != nil {
		return Result{Err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	res := Result{Status: resp.StatusCode, Digest: digestOf(body), Err: err, Hash: resp.Header.Get("X-Dataset-Hash")}
	if op.Kind == opUpload && resp.StatusCode == http.StatusCreated {
		var info struct {
			Hash string `json:"hash"`
		}
		if err := json.Unmarshal(body, &info); err != nil {
			res.Err = fmt.Errorf("upload response: %w", err)
		}
		res.Hash = info.Hash
	}
	return res
}

// checkUpload verifies an upload answer: 201 and the content hash of the
// panel as the benchmark ingested it.
func (fx *fixture) checkUpload(res Result) string {
	switch {
	case res.Err != nil:
		return fmt.Sprintf("upload %s: %v", fx.panels[res.Panel].name, res.Err)
	case res.Status != http.StatusCreated:
		return fmt.Sprintf("upload %s: status %d", fx.panels[res.Panel].name, res.Status)
	}
	fx.current = res.Panel
	return sameHash("upload "+fx.panels[res.Panel].name, res.Hash, fx.panels[res.Panel].hash)
}

// classify checks a query answer: 200, the hash of an uploaded panel, and
// the same bytes as every earlier answer for its content key. It reports
// the problem, if any, and whether the key was answered before.
func (fx *fixture) classify(res Result) (hit bool, problem string) {
	what := fmt.Sprintf("%s seed %d", res.Artifact, res.Seed)
	switch {
	case res.Err != nil:
		return false, fmt.Sprintf("%s: %v", what, res.Err)
	case res.Status != http.StatusOK:
		return false, fmt.Sprintf("%s: status %d", what, res.Status)
	}
	if _, ok := fx.known[res.Hash]; !ok {
		return false, fmt.Sprintf("%s: answered for unknown content hash %.12s", what, res.Hash)
	}
	hit, mismatch := fx.cls.Observe(contentKey{res.Hash, res.Artifact, res.Seed}, res.Digest)
	if mismatch {
		return hit, fmt.Sprintf("%s: bytes differ from the first answer for the same content", what)
	}
	return hit, ""
}

// tally classifies and checks the timed phase's answers, reconciles the
// status tallies with /healthz, and sets the latency metrics.
func (r *run) tally(fx *fixture, results []Result, ls LoadStats, shed int) {
	var all, hits, misses, uploads, late []float64
	var ok2xx, tooMany, other int
	for _, res := range results {
		late = append(late, ms(res.Lateness()))
		switch {
		case res.Err == nil && res.Status/100 == 2:
			ok2xx++
		case res.Err == nil && res.Status == http.StatusTooManyRequests:
			tooMany++
		default:
			other++
		}
		if res.Kind == opUpload {
			problem := fx.checkUpload(res)
			r.op(problem)
			if problem == "" {
				uploads = append(uploads, ms(res.Latency()))
			}
			continue
		}
		hit, problem := fx.classify(res)
		r.op(problem)
		if problem != "" {
			continue // counted in failed, not in the latencies
		}
		lat := ms(res.Latency())
		all = append(all, lat)
		if hit {
			hits = append(hits, lat)
		} else {
			misses = append(misses, lat)
		}
	}
	if ok2xx+tooMany+other != len(results) {
		r.bad("status tallies %d+%d+%d do not add up to %d sent", ok2xx, tooMany, other, len(results))
	}
	if tooMany != shed {
		r.bad("client saw %d 429s but /healthz shed moved by %d", tooMany, shed)
	}
	if len(uploads) == 0 || len(all) == 0 {
		r.bad("the timed phase sent %d queries and %d uploads; it needs both", len(all), len(uploads))
		return
	}
	qt, ht, mt, lt := TailOf(all), TailOf(hits), TailOf(misses), TailOf(late)
	m := r.metrics
	m["query_p50_ms"], m["query_p99_ms"] = median(all), qt.Value
	m["upload_p50_ms"] = median(uploads)
	m["serve.hit_p50_ms"], m["serve.hit_p99_ms"] = median(hits), ht.Value
	m["serve.miss_p50_ms"], m["serve.miss_p99_ms"] = median(misses), mt.Value
	m["serve.hit_frac"] = float64(len(hits)) / float64(len(all))
	m["serve.shed"] = float64(shed)
	m["loadgen.late_p99_ms"] = lt.Value
	m["loadgen.backlog_max"] = float64(ls.BacklogMax)
	r.note("open loop: %d queries at %.0f/s over %d s, %d uploads; 2xx %d, 429 %d, other %d; shed %d",
		len(all), serveMix.Rate, int(r.seconds.Seconds()), len(uploads), ok2xx, tooMany, other, shed)
	r.note("query latency %s; hits %s; misses %s; uploads %.4v ms", qt, ht, mt, uploads)
	r.note("generator lateness %s; backlog max %d", lt, ls.BacklogMax)
}

// runTimed runs the open-loop schedule in coldPasses equal slices and,
// after each slice, fetches the whole registry once at a fresh seed from
// seed up. So the passes that give wall_s sample the host's speed across
// the whole run, not in the few seconds after it. The open loop carries
// spans in a traced run; the passes do not.
func (fx *fixture) runTimed(ctx context.Context, r *run, tr *Tracer, ops []Op, conns int, seed uint64) ([]Result, LoadStats, []float64) {
	var results []Result
	var ls LoadStats
	var walls []float64
	for k, part := range sliceSchedule(ops, r.seconds, coldPasses) {
		got, st := RunOpenLoop(ctx, part, conns, tr, fx.do)
		start := time.Duration(k) * (r.seconds / coldPasses)
		for j := range got { // back to the schedule's clock
			got[j].Due += start
			got[j].Sent += start
			got[j].Done += start
		}
		results = append(results, got...)
		ls.Sent += st.Sent
		ls.BacklogMax = max(ls.BacklogMax, st.BacklogMax)
		for _, res := range got {
			if res.Kind == opUpload && res.Err == nil && res.Status == http.StatusCreated {
				fx.current = res.Panel // the pass's answers must be for this panel
			}
		}
		walls = append(walls, fx.coldPasses(ctx, r, nil, conns, seed+uint64(k), 1)...)
	}
	return results, ls, walls
}

// coldPasses fetches the whole registry n times, each at a fresh seed,
// over conns connections and returns each pass's time to the last checked
// answer.
func (fx *fixture) coldPasses(ctx context.Context, r *run, tr *Tracer, conns int, seed uint64, n int) []float64 {
	var walls []float64
	for i := 0; i < n; i++ {
		ops := make([]Op, 0, 20)
		for _, s := range slugs() {
			ops = append(ops, Op{Kind: opQuery, Artifact: s, Seed: seed + uint64(i)})
		}
		sp := tr.Begin(0, 0, "cold_pass")
		t0 := time.Now()
		got, _ := RunOpenLoop(ctx, ops, conns, tr, fx.do)
		for _, res := range got {
			_, problem := fx.classify(res)
			if problem == "" {
				problem = sameHash(res.Artifact, res.Hash, fx.panels[fx.current].hash)
			}
			r.op(problem)
		}
		walls = append(walls, time.Since(t0).Seconds())
		tr.End(sp, nil)
	}
	return walls
}

// recompute answers a sample of the served content keys in this process
// and requires the server's bytes. It is a check, so it is not traced.
func (fx *fixture) recompute(r *run, rng *rand.Rand) {
	ids := map[string]string{}
	for _, e := range broadband.Experiments() {
		ids[golden.Slug(e.ID)] = e.ID
	}
	keys := fx.cls.Keys()
	for _, k := range rng.Perm(len(keys))[:min(recomputeKeys, len(keys))] {
		key := keys[k]
		rep, err := broadband.Run(ids[key.Artifact], fx.panels[fx.known[key.Hash]].data, key.Seed)
		if err != nil {
			r.op(fmt.Sprintf("recompute %s seed %d: %v", key.Artifact, key.Seed, err))
			continue
		}
		b, err := golden.Marshal(rep)
		want, _ := fx.cls.Digest(key)
		switch {
		case err != nil:
			r.op(fmt.Sprintf("recompute %s seed %d: %v", key.Artifact, key.Seed, err))
		case digestOf(b) != want:
			r.op(fmt.Sprintf("recompute %s seed %d on %.12s: bytes differ from the server's", key.Artifact, key.Seed, key.Hash))
		default:
			r.op("")
		}
	}
}

// shed reads the server's admission-control shed counter from /healthz.
func (fx *fixture) shed(ctx context.Context) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fx.srv.base+"/healthz", nil)
	if err != nil {
		return 0, err
	}
	resp, err := fx.client.Do(req)
	if err != nil {
		return 0, fmt.Errorf("healthz: %w", err)
	}
	defer resp.Body.Close()
	var h struct {
		Shed int `json:"shed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, fmt.Errorf("healthz: %w", err)
	}
	return h.Shed, nil
}

func (fx *fixture) close(r *run) {
	fx.client.CloseIdleConnections()
	if fx.srv != nil {
		if err := fx.srv.stop(); err != nil {
			r.bad("stopping bbserve: %v", err)
		}
	}
}

// server is a bbserve child process.
type server struct {
	cmd  *exec.Cmd
	base string
	log  string
	done chan error
}

// startServer runs bbserve over a disk store under dir, with its scratch
// files there too, and waits until it is ready.
func startServer(ctx context.Context, bin, dir string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	tmp := filepath.Join(dir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	s := &server{base: "http://127.0.0.1:" + strconv.Itoa(port), log: filepath.Join(dir, "bbserve.log"), done: make(chan error, 1)}
	logf, err := os.Create(s.log)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	s.cmd = exec.Command(bin, "-addr", "127.0.0.1:"+strconv.Itoa(port), "-store", filepath.Join(dir, "store"))
	s.cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start bbserve: %w", err)
	}
	go func() { s.done <- s.cmd.Wait() }()

	deadline := time.Now().Add(30 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/readyz", nil)
		if err != nil {
			s.stop()
			return nil, err
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case err := <-s.done:
			s.done <- err
			return nil, fmt.Errorf("bbserve exited before it was ready (%v): %s", err, tail(s.log))
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("bbserve not ready after 30 s: %s", tail(s.log))
		}
	}
}

// stop sends SIGTERM, waits for the drain, and kills the process if it
// has not exited in 20 s. bbserve exits 130 after a clean drain.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case err := <-s.done:
		var ee *exec.ExitError
		if errors.As(err, &ee) && ee.ExitCode() == 130 {
			return nil
		}
		return fmt.Errorf("bbserve exited with %v: %s", err, tail(s.log))
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
		return errors.New("bbserve did not drain within 20 s; killed")
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// tail returns the last lines of a log file for error messages.
func tail(file string) string {
	f, err := os.Open(file)
	if err != nil {
		return ""
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lines = append(lines, sc.Text())
		if len(lines) > 5 {
			lines = lines[1:]
		}
	}
	return strings.Join(lines, " | ")
}
