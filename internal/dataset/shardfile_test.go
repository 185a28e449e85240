package dataset

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/nwca/broadband/internal/market"
	"github.com/nwca/broadband/internal/unit"
)

// shardTestUsers builds a small valid panel (IDs 1..n) for shard-layout
// tests; values only need to round-trip, not satisfy Dataset.Validate.
func shardTestUsers(n int) []User {
	users := make([]User, n)
	for i := range users {
		users[i] = User{
			ID: int64(i + 1), Country: "US", Year: 2013, ISP: "isp",
			NetworkKey: "isp/net0/city0",
			PlanDown:   unit.MbpsOf(10), PlanUp: unit.MbpsOf(1),
			PlanPrice: unit.USD(40), PlanTech: market.Cable,
			Capacity: unit.MbpsOf(float64(8 + i)), UpCapacity: unit.MbpsOf(1),
			RTT: 0.03, Loss: unit.LossFromPercent(0.1),
			Usage: UsageSummary{
				Mean: unit.MbpsOf(1), Peak: unit.MbpsOf(4),
				MeanNoBT: unit.MbpsOf(1), PeakNoBT: unit.MbpsOf(3),
			},
		}
	}
	return users
}

// writeShardSet splits users across total shard files under dir.
func writeShardSet(t *testing.T, dir string, users []User, total int, gz bool) {
	t.Helper()
	for i := 0; i < total; i++ {
		lo, hi := i*len(users)/total, (i+1)*len(users)/total
		_, err := WriteUserShardCtx(context.Background(), dir, i, total, gz, func(w *Writer[User]) error {
			for j := lo; j < hi; j++ {
				if err := w.Write(&users[j]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func mustReadUsers(t *testing.T, src UserSource) []User {
	t.Helper()
	users, err := readAll[User](src)
	if err != nil {
		t.Fatal(err)
	}
	return users
}

func TestUserStreamOverShards(t *testing.T) {
	t.Parallel()
	users := shardTestUsers(11)
	for _, gz := range []bool{false, true} {
		dir := t.TempDir()
		// total=4 over 11 users: uneven shard sizes exercise the split.
		writeShardSet(t, dir, users, 4, gz)
		us, err := StreamUsersDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(us.Files()) != 4 {
			t.Fatalf("gz=%v: stream over %d files, want 4", gz, len(us.Files()))
		}
		got := mustReadUsers(t, us)
		if err := us.Close(); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(users) {
			t.Fatalf("gz=%v: read %d users, want %d", gz, len(got), len(users))
		}
		for i := range got {
			if got[i] != users[i] {
				t.Fatalf("gz=%v: user %d differs after shard round-trip:\n got %+v\nwant %+v", gz, i, got[i], users[i])
			}
		}
	}
}

func TestUserStreamSkipsEmptyShards(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	users := shardTestUsers(2)
	// 5 shards over 2 users: the tail shards are header-only files.
	writeShardSet(t, dir, users, 5, false)
	for i := 0; i < 5; i++ {
		if _, err := os.Stat(filepath.Join(dir, UserShardName(i, 5, false))); err != nil {
			t.Fatalf("shard %d missing: %v (empty shards must still exist)", i, err)
		}
	}
	us, err := StreamUsersDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer us.Close()
	got := mustReadUsers(t, us)
	if len(got) != 2 {
		t.Fatalf("read %d users through empty shards, want 2", len(got))
	}
}

func TestMonolithicFileWinsOverShards(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	writeShardSet(t, dir, shardTestUsers(6), 2, false)
	mono := shardTestUsers(3)
	if err := writeTableCtx(context.Background(), filepath.Join(dir, "users.csv"), false, func(w io.Writer) error {
		return WriteUsers(w, mono)
	}); err != nil {
		t.Fatal(err)
	}
	us, err := StreamUsersDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer us.Close()
	if got := mustReadUsers(t, us); len(got) != 3 {
		t.Fatalf("read %d users, want the 3 from users.csv (monolithic file wins)", len(got))
	}
}

func TestFindUserShardsRejectsBrokenSets(t *testing.T) {
	t.Parallel()

	t.Run("none", func(t *testing.T) {
		t.Parallel()
		_, err := FindUserShards(t.TempDir())
		if !errors.Is(err, os.ErrNotExist) {
			t.Errorf("err = %v, want ErrNotExist for an empty dir", err)
		}
	})
	t.Run("missing-index", func(t *testing.T) {
		t.Parallel()
		dir := t.TempDir()
		writeShardSet(t, dir, shardTestUsers(6), 3, false)
		if err := os.Remove(filepath.Join(dir, UserShardName(1, 3, false))); err != nil {
			t.Fatal(err)
		}
		if _, err := FindUserShards(dir); err == nil {
			t.Error("incomplete shard set loaded without error")
		}
		if _, err := StreamUsersDir(dir); err == nil {
			t.Error("StreamUsersDir over incomplete set succeeded")
		}
	})
	t.Run("mixed-totals", func(t *testing.T) {
		t.Parallel()
		dir := t.TempDir()
		writeShardSet(t, dir, shardTestUsers(4), 2, false)
		writeShardSet(t, dir, shardTestUsers(4), 3, false)
		if _, err := FindUserShards(dir); err == nil {
			t.Error("mixed shard totals loaded without error")
		}
	})
	t.Run("bad-range", func(t *testing.T) {
		t.Parallel()
		dir := t.TempDir()
		for _, c := range []struct{ i, n int }{{-1, 2}, {2, 2}, {0, 0}} {
			if _, err := WriteUserShardCtx(context.Background(), dir, c.i, c.n, false, func(*Writer[User]) error { return nil }); err == nil {
				t.Errorf("WriteUserShardCtx(%d, %d) accepted an out-of-range index", c.i, c.n)
			}
		}
	})
}

// TestLoadDirReadsShardedUsers pins layout transparency: a directory with
// sharded users plus the usual switches/plans loads through LoadDir exactly
// like its monolithic twin.
func TestLoadDirReadsShardedUsers(t *testing.T) {
	t.Parallel()
	d := sampleDataset()
	for _, mbps := range []float64{1, 2, 4, 8, 16} {
		d.Plans = append(d.Plans,
			planFor("US", mbps, 20+0.55*(mbps-1)),
			planFor("JP", mbps, 21+0.08*(mbps-1)),
		)
	}
	monoDir, shardDir := t.TempDir(), t.TempDir()
	if err := d.SaveDir(monoDir); err != nil {
		t.Fatal(err)
	}
	if err := d.SaveDir(shardDir); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(shardDir, "users.csv")); err != nil {
		t.Fatal(err)
	}
	writeShardSet(t, shardDir, d.Users, 3, false)

	mono, err := LoadDir(monoDir)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := LoadDir(shardDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(mono.Users) != len(sharded.Users) {
		t.Fatalf("sharded load has %d users, monolithic %d", len(sharded.Users), len(mono.Users))
	}
	for i := range mono.Users {
		if mono.Users[i] != sharded.Users[i] {
			t.Fatalf("user %d differs between layouts", i)
		}
	}
}

// shardedTwins saves one dataset twice — monolithic, and with its users as
// a 3-shard set — and returns both directories.
func shardedTwins(t *testing.T) (monoDir, shardDir string) {
	t.Helper()
	d := sampleDataset()
	d.Users = manyUsers(60)
	for _, cc := range []string{"US", "JP", "DE", "BR", "IN"} {
		for _, mbps := range []float64{1, 2, 4, 8, 16} {
			d.Plans = append(d.Plans, planFor(cc, mbps, 20+0.5*(mbps-1)))
		}
	}
	monoDir, shardDir = t.TempDir(), t.TempDir()
	for _, dir := range []string{monoDir, shardDir} {
		if err := d.SaveDir(dir); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Remove(filepath.Join(shardDir, "users.csv")); err != nil {
		t.Fatal(err)
	}
	writeShardSet(t, shardDir, d.Users, 3, false)
	return monoDir, shardDir
}

// TestLoadDirRobustReadsShardedUsers: the quarantine loader resolves the
// user table exactly as LoadDir does, so a clean sharded directory loads
// to the same dataset as its monolithic twin.
func TestLoadDirRobustReadsShardedUsers(t *testing.T) {
	t.Parallel()
	monoDir, shardDir := shardedTwins(t)
	mono, monoRep, err := LoadDirRobust(monoDir, QuarantineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sharded, shardRep, err := LoadDirRobust(shardDir, QuarantineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(monoRep.Diags) != 0 || len(shardRep.Diags) != 0 {
		t.Fatalf("clean data quarantined rows: mono %v, sharded %v", monoRep.Diags, shardRep.Diags)
	}
	if shardRep.RowsRead != monoRep.RowsRead || shardRep.RowsKept != monoRep.RowsKept {
		t.Errorf("sharded report %d/%d rows, monolithic %d/%d",
			shardRep.RowsKept, shardRep.RowsRead, monoRep.RowsKept, monoRep.RowsRead)
	}
	if !reflect.DeepEqual(mono.Users, sharded.Users) || !reflect.DeepEqual(mono.Switches, sharded.Switches) ||
		!reflect.DeepEqual(mono.Plans, sharded.Plans) {
		t.Error("sharded robust load differs from the monolithic one")
	}
}

// TestLoadDirRobustShardDiagnostics: every diagnostic names the shard a row
// came from and its row in that file — streaming faults and post-pass
// demotions alike.
func TestLoadDirRobustShardDiagnostics(t *testing.T) {
	t.Parallel()
	_, dir := shardedTwins(t)
	shard := func(i int) string { return filepath.Join(dir, UserShardName(i, 3, false)) }
	lines := func(path string) []string {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return strings.SplitAfter(strings.TrimSuffix(string(raw), "\n"), "\n")
	}
	// Shard 2, row 3: an unparseable year.
	s2 := lines(shard(2))
	s2[2] = strings.Replace(s2[2], ",2011,", ",twenty11,", 1)
	s2[2] = strings.Replace(s2[2], ",2012,", ",twenty12,", 1)
	s2[2] = strings.Replace(s2[2], ",2013,", ",twenty13,", 1)
	// Shard 1: a copy of shard 0's first user appended as its last row.
	s1 := append(lines(shard(1)), "\n"+lines(shard(0))[1])
	for path, body := range map[string][]string{shard(1): s1, shard(2): s2} {
		if err := os.WriteFile(path, []byte(strings.Join(body, "")), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	d, rep, err := LoadDirRobust(dir, QuarantineOptions{MaxBadFrac: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	want := []RowDiag{
		{File: shard(2), Row: 3, Class: FaultParse},
		{File: shard(1), Row: len(s1), Class: FaultDuplicate},
	}
	if len(rep.Diags) != len(want) {
		t.Fatalf("diags %v, want %d", rep.Diags, len(want))
	}
	for i, w := range want {
		if g := rep.Diags[i]; g.File != w.File || g.Row != w.Row || g.Class != w.Class {
			t.Errorf("diag %d = %s, want %s row %d [%s]", i, g, w.File, w.Row, w.Class)
		}
	}
	if len(d.Users) != 59 {
		t.Errorf("kept %d users, want 59", len(d.Users))
	}
}
