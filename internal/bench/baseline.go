package bench

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
)

// baselineRe matches committed trajectory files: BENCH_<pr>.json.
var baselineRe = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// LatestBaseline returns the path of the BENCH_<n>.json in dir with the
// highest PR index, or "" (with nil error) when dir holds none. Indices
// compare numerically: a lexical sort would place BENCH_10.json before
// BENCH_6.json and silently gate CI against a stale baseline once the
// trajectory reaches double digits. Resolve the baseline BEFORE writing a
// new trajectory file, or a run could compare against its own output.
func LatestBaseline(dir string) (string, error) {
	n, name, err := latest(dir)
	if err != nil || n < 0 {
		return "", err
	}
	return filepath.Join(dir, name), nil
}

// NextBaseline returns the path of the trajectory file that follows the
// newest BENCH_<n>.json in dir — BENCH_<n+1>.json, or BENCH_1.json when
// dir holds none — so a default run never overwrites a committed
// baseline. Like LatestBaseline, resolve it before writing anything.
func NextBaseline(dir string) (string, error) {
	n, _, err := latest(dir)
	if err != nil {
		return "", err
	}
	if n < 0 {
		n = 0
	}
	return filepath.Join(dir, "BENCH_"+strconv.Itoa(n+1)+".json"), nil
}

// latest returns the highest index among the BENCH_<n>.json files in dir
// and that file's name, or -1 when there are none.
func latest(dir string) (int, string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return -1, "", err
	}
	best, bestName := -1, ""
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		m := baselineRe.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		idx, err := strconv.Atoi(m[1])
		if err != nil || idx <= best {
			continue
		}
		best, bestName = idx, e.Name()
	}
	return best, bestName, nil
}
