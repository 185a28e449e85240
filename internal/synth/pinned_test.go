package synth

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"github.com/nwca/broadband/internal/dataset"
)

// TestWorldBytesPinned pins the CSV bytes a small world build writes. The
// goldens pin artifacts only, within a tolerance; this holds every
// generated field, so a change to the generator's arithmetic (the usage
// summary, the fluid simulator, the RNG draw order) cannot pass unseen.
// Regenerate the constants only for a change meant to move the data.
func TestWorldBytesPinned(t *testing.T) {
	w, err := Build(Config{Seed: 11, Users: 300, FCCUsers: 80, Days: 2, SwitchTarget: 60, MinPerCountry: 4})
	if err != nil {
		t.Fatal(err)
	}
	d := w.Data
	for _, c := range []struct {
		table string
		write func(io.Writer) error
		want  string
	}{
		{"users", func(w io.Writer) error { return dataset.WriteUsers(w, d.Users) }, wantWorldUsersSHA256},
		{"switches", func(w io.Writer) error { return dataset.WriteSwitches(w, d.Switches) }, wantWorldSwitchesSHA256},
		{"plans", func(w io.Writer) error { return dataset.WritePlans(w, d.Plans) }, wantWorldPlansSHA256},
	} {
		var buf bytes.Buffer
		if err := c.write(&buf); err != nil {
			t.Fatalf("%s: %v", c.table, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s.csv bytes changed: sha256 %s, want %s (%d bytes)", c.table, got, c.want, buf.Len())
		}
	}
}

const (
	wantWorldUsersSHA256    = "fe81f558d72894a363e852a31e554ea6ee06aaf77b9c33c91576aee8253aa116"
	wantWorldSwitchesSHA256 = "66fa58bc7a0c383557ad2a4d1956fdfb54d6070f6dae75454de60a17419ba51f"
	wantWorldPlansSHA256    = "cafa7b32a662f924c1a28d7af317383d0bd8f38136015800d6e21527a7f1d65c"
)
