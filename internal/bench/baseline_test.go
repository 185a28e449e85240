package bench

import (
	"os"
	"path/filepath"
	"testing"
)

func touch(t *testing.T, dir, name string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLatestBaselineNumericOrder pins the double-digit regression this
// helper exists to prevent: with baselines {2, 6, 10} a lexical sort picks
// BENCH_6.json (since "BENCH_10" < "BENCH_6" as strings); the numeric sort
// must pick BENCH_10.json.
func TestLatestBaselineNumericOrder(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	for _, name := range []string{"BENCH_2.json", "BENCH_6.json", "BENCH_10.json"} {
		touch(t, dir, name)
	}
	got, err := LatestBaseline(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "BENCH_10.json"); got != want {
		t.Errorf("LatestBaseline = %q, want %q", got, want)
	}
}

func TestLatestBaselineIgnoresNonBaselines(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	for _, name := range []string{
		"BENCH_3.json", "bench-ci.json", "BENCH_X.json", "BENCH_12.json.bak",
		"BENCH_.json", "BENCH_4.JSON", "notBENCH_9.json",
	} {
		touch(t, dir, name)
	}
	if err := os.Mkdir(filepath.Join(dir, "BENCH_99.json"), 0o755); err != nil {
		t.Fatal(err)
	}
	got, err := LatestBaseline(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "BENCH_3.json"); got != want {
		t.Errorf("LatestBaseline = %q, want %q (everything else is not a baseline)", got, want)
	}
}

func TestLatestBaselineEmpty(t *testing.T) {
	t.Parallel()
	got, err := LatestBaseline(t.TempDir())
	if err != nil || got != "" {
		t.Errorf("LatestBaseline(empty) = %q, %v; want \"\", nil", got, err)
	}
	if _, err := LatestBaseline(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("LatestBaseline of a missing dir should error")
	}
}

// TestNextBaseline pins the default bbbench -out: the file after the
// newest committed baseline, compared numerically, so a run with no flags
// never overwrites one.
func TestNextBaseline(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	for _, name := range []string{"BENCH_6.json", "BENCH_10.json"} {
		touch(t, dir, name)
	}
	got, err := NextBaseline(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "BENCH_11.json"); got != want {
		t.Errorf("NextBaseline = %q, want %q", got, want)
	}
	empty := t.TempDir()
	got, err = NextBaseline(empty)
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(empty, "BENCH_1.json"); got != want {
		t.Errorf("NextBaseline(empty) = %q, want %q", got, want)
	}
}
