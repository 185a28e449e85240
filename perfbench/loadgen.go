package main

import (
	"context"
	"crypto/sha256"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// opKind separates the two request types of the serve workload.
type opKind int

const (
	opQuery opKind = iota
	opUpload
)

// Op is one scheduled request of an open-loop run.
type Op struct {
	Due      time.Duration // when it is due, from the start of the run
	Kind     opKind
	Artifact string // query: registry slug
	Seed     uint64 // query: analysis seed
	Panel    int    // upload: which panel
}

// Result is the outcome of one Op. Latency runs from Due, not from Sent,
// so a request that waited for a free connection carries that wait.
type Result struct {
	Op
	Sent, Done time.Duration
	Status     int
	Hash       string // content hash the server answered for
	Digest     [32]byte
	Err        error
}

// Latency is the time from when the request was due to its answer.
func (r Result) Latency() time.Duration { return r.Done - r.Due }

// Lateness is how long the request waited in the generator.
func (r Result) Lateness() time.Duration { return r.Sent - r.Due }

// LoadStats summarizes the generator itself.
type LoadStats struct {
	BacklogMax int // most due requests waiting for a connection at once
	Sent       int
}

// doFunc performs one request on connection conn and fills Status, Hash,
// Digest and Err of the result.
type doFunc func(ctx context.Context, conn int, op Op) Result

// RunOpenLoop sends ops at their due times over conns connections. A
// request whose connection is busy waits in the generator; it is still
// timed from its due time. Ops not sent before ctx ends are dropped from
// the results. RunOpenLoop returns when every sent request has finished.
func RunOpenLoop(ctx context.Context, ops []Op, conns int, tr *Tracer, do doFunc) ([]Result, LoadStats) {
	start := time.Now()
	queue := make(chan int, len(ops)) // sized to the number of sends
	results := make([]Result, len(ops))
	var started atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range queue {
				started.Add(1)
				op := ops[i]
				sent := time.Since(start)
				span := tr.Begin(0, c+1, spanName(op))
				r := do(ctx, c, op)
				tr.End(span, nil)
				r.Op, r.Sent, r.Done = op, sent, time.Since(start)
				results[i] = r
			}
		}(c)
	}
	var st LoadStats
	// The timer is made at the first wait: a timer that already fired
	// would keep its tick for the next Reset, and that send would go early.
	var timer *time.Timer
dispatch:
	for i, op := range ops {
		if wait := op.Due - time.Since(start); wait > 0 {
			if timer == nil {
				timer = time.NewTimer(wait)
				defer timer.Stop()
			} else {
				timer.Reset(wait)
			}
			select {
			case <-ctx.Done():
				break dispatch
			case <-timer.C:
			}
		}
		if b := i - int(started.Load()); b > st.BacklogMax {
			st.BacklogMax = b
		}
		queue <- i
		st.Sent++
	}
	close(queue)
	wg.Wait()
	return results[:st.Sent], st
}

func spanName(op Op) string {
	if op.Kind == opUpload {
		return "serve.upload"
	}
	return "serve.query"
}

// contentKey identifies an answer the way the server's result cache does:
// dataset content hash, artifact and analysis seed.
type contentKey struct {
	Hash     string
	Artifact string
	Seed     uint64
}

// Classifier labels each answer a hit or a miss by whether its content
// key was answered before, and holds every key's first answer digest so a
// later answer with different bytes is caught.
type Classifier struct {
	first map[contentKey][32]byte
}

// NewClassifier returns a classifier that has seen no keys.
func NewClassifier() *Classifier { return &Classifier{first: make(map[contentKey][32]byte)} }

// Observe records one answer and reports whether its key was seen before
// and, if so, whether the bytes differ from the first answer's.
func (c *Classifier) Observe(k contentKey, digest [32]byte) (hit, mismatch bool) {
	d, ok := c.first[k]
	if !ok {
		c.first[k] = digest
		return false, false
	}
	return true, d != digest
}

// Keys returns the keys seen, sorted.
func (c *Classifier) Keys() []contentKey {
	out := make([]contentKey, 0, len(c.first))
	for k := range c.first {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Hash != b.Hash {
			return a.Hash < b.Hash
		}
		if a.Artifact != b.Artifact {
			return a.Artifact < b.Artifact
		}
		return a.Seed < b.Seed
	})
	return out
}

// Digest is the first answer recorded for k.
func (c *Classifier) Digest(k contentKey) ([32]byte, bool) {
	d, ok := c.first[k]
	return d, ok
}

// mix is the serve workload's traffic mix.
type mix struct {
	Rate        float64       // queries per second, evenly spaced
	FreshEvery  int           // every FreshEvery-th query asks a never-asked key
	UploadEvery time.Duration // re-upload period; not a multiple of the first-ask cycle
	Zipf        float64       // popularity skew over the hot keys (s > 1)
}

// hotKey is one popular (artifact, seed) pair.
type hotKey struct {
	Artifact string
	Seed     uint64
}

// hotKeys lists the popular keys in popularity order: every artifact at
// each hot seed, shuffled by the workload seed.
func hotKeys(rng *rand.Rand, slugs []string, seeds []uint64) []hotKey {
	var out []hotKey
	for _, s := range seeds {
		for _, a := range slugs {
			out = append(out, hotKey{a, s})
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// schedule builds the seeded open-loop request list for one run of
// length d. Queries arrive at the fixed rate. Every FreshEvery-th query is
// a first ask: the next of the fresh artifacts, in turn, at a fresh seed
// (freshBase up). The others draw a hot key by Zipf popularity. Uploads of
// the given panels, in turn, come every UploadEvery. Each lands
// UploadEvery mod cycle later in the first-ask cycle than the one before;
// the first lands at a seeded offset below that step, so the uploads'
// places in the cycle are evenly spaced and the seed shifts them.
func schedule(rng *rand.Rand, m mix, d time.Duration, fresh []string, hot []hotKey, freshBase uint64, panels []int) []Op {
	zipf := rand.NewZipf(rng, m.Zipf, 1, uint64(len(hot)-1))
	cycle := time.Duration(float64(len(fresh)*m.FreshEvery) / m.Rate * float64(time.Second))
	step := m.UploadEvery % cycle
	var ops []Op
	for i, t := 0, time.Duration(rng.Int63n(int64(step))); t < d; i, t = i+1, t+m.UploadEvery {
		ops = append(ops, Op{Due: t, Kind: opUpload, Panel: panels[i%len(panels)]})
	}
	asked := 0
	for q := 0; ; q++ {
		t := time.Duration(float64(q) / m.Rate * float64(time.Second))
		if t >= d {
			break
		}
		op := Op{Due: t, Kind: opQuery}
		if q%m.FreshEvery == m.FreshEvery/2 {
			op.Artifact, op.Seed = fresh[asked%len(fresh)], freshBase+uint64(asked)
			asked++
		} else {
			k := hot[zipf.Uint64()]
			op.Artifact, op.Seed = k.Artifact, k.Seed
		}
		ops = append(ops, op)
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Due < ops[j].Due })
	return ops
}

// sliceSchedule cuts ops, sorted by due time over a run of length d, into
// n consecutive slices of length d/n. Each op becomes due at its offset
// from its slice's start; the last slice also takes any op due at or
// after n·(d/n).
func sliceSchedule(ops []Op, d time.Duration, n int) [][]Op {
	slice := d / time.Duration(n)
	parts := make([][]Op, n)
	for _, op := range ops {
		k := min(int(op.Due/slice), n-1)
		op.Due -= time.Duration(k) * slice
		parts[k] = append(parts[k], op)
	}
	return parts
}

func digestOf(b []byte) [32]byte { return sha256.Sum256(b) }
