package broadband_test

import (
	"bytes"
	"io"
	"strings"
	"testing"

	broadband "github.com/nwca/broadband"
	"github.com/nwca/broadband/internal/experiments"
)

// TestFacadeStreamingRoundTrip drives every exported streaming constructor
// through a write→read→write cycle on real world data. Unit-scaled fields
// round once on first save, so the contract checked here is the documented
// one: a reloaded row re-encodes to exactly the bytes it was read from.
func TestFacadeStreamingRoundTrip(t *testing.T) {
	w := apiTestWorld(t)
	d := &w.Data
	if len(d.Users) < 10 || len(d.Switches) < 5 || len(d.Plans) < 10 {
		t.Fatalf("world too small: %d users, %d switches, %d plans",
			len(d.Users), len(d.Switches), len(d.Plans))
	}

	t.Run("users", func(t *testing.T) {
		var first bytes.Buffer
		uw, err := broadband.NewUserWriter(&first)
		if err != nil {
			t.Fatal(err)
		}
		for i := range d.Users[:10] {
			if err := uw.Write(&d.Users[i]); err != nil {
				t.Fatal(err)
			}
		}
		ur, err := broadband.NewUserReader(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var second bytes.Buffer
		uw2, err := broadband.NewUserWriter(&second)
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		for {
			var u broadband.User
			if err := ur.Read(&u); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			if err := uw2.Write(&u); err != nil {
				t.Fatal(err)
			}
			rows++
		}
		if rows != 10 {
			t.Fatalf("read back %d users, wrote 10", rows)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Error("users did not reach the save→load→save fixed point")
		}
	})

	t.Run("switches", func(t *testing.T) {
		var first bytes.Buffer
		sw, err := broadband.NewSwitchWriter(&first)
		if err != nil {
			t.Fatal(err)
		}
		for i := range d.Switches[:5] {
			if err := sw.Write(&d.Switches[i]); err != nil {
				t.Fatal(err)
			}
		}
		sr, err := broadband.NewSwitchReader(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var second bytes.Buffer
		sw2, err := broadband.NewSwitchWriter(&second)
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		for {
			var s broadband.Switch
			if err := sr.Read(&s); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			if err := sw2.Write(&s); err != nil {
				t.Fatal(err)
			}
			rows++
		}
		if rows != 5 {
			t.Fatalf("read back %d switches, wrote 5", rows)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Error("switches did not reach the save→load→save fixed point")
		}
	})

	t.Run("plans", func(t *testing.T) {
		var first bytes.Buffer
		pw, err := broadband.NewPlanWriter(&first)
		if err != nil {
			t.Fatal(err)
		}
		for i := range d.Plans[:10] {
			if err := pw.Write(&d.Plans[i]); err != nil {
				t.Fatal(err)
			}
		}
		pr, err := broadband.NewPlanReader(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var second bytes.Buffer
		pw2, err := broadband.NewPlanWriter(&second)
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		for {
			var p broadband.Plan
			if err := pr.Read(&p); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			if err := pw2.Write(&p); err != nil {
				t.Fatal(err)
			}
			rows++
		}
		if rows != 10 {
			t.Fatalf("read back %d plans, wrote 10", rows)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Error("plans did not reach the save→load→save fixed point")
		}
	})
}

func TestFacadeRegistryLookups(t *testing.T) {
	exts := broadband.ExtensionExperiments()
	if len(exts) == 0 {
		t.Error("ExtensionExperiments is empty")
	}
	e, ok := experiments.Lookup("Table 1")
	if !ok || e.ID != "Table 1" {
		t.Errorf("Lookup(Table 1) = %+v, %v", e, ok)
	}
	if _, ok := experiments.Lookup("Table 42"); ok {
		t.Error("Lookup must reject unknown IDs")
	}
	// Run resolves extensions too, and rejects an unknown ID before it
	// touches the dataset.
	if e, ok := experiments.Lookup(exts[0].ID); !ok || e.ID != exts[0].ID {
		t.Errorf("Lookup(%s) = %+v, %v", exts[0].ID, e, ok)
	}
	if _, err := broadband.Run("Table 42", nil, 1); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("Run(Table 42) = %v, want an unknown-experiment error", err)
	}
}
