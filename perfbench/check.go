package main

import (
	"fmt"
	"os"
	"path/filepath"

	broadband "github.com/nwca/broadband"
	"github.com/nwca/broadband/internal/golden"
)

// goldenSeed is the world and analysis seed the committed goldens were
// generated at.
const goldenSeed = 20140705

// goldenWorld is the golden world config (testdata/golden's world).
func goldenWorld() broadband.WorldConfig {
	return broadband.WorldConfig{
		Seed: goldenSeed, Users: 5000, FCCUsers: 1200, Days: 2,
		SwitchTarget: 900, MinPerCountry: 30,
	}
}

// goldenRel is the relative tolerance of the golden comparison. Reports
// are computed on a panel that went through one CSV save and load, and
// that first save rounds unit-scaled fields (the behaviour
// TestTransportEquivalence documents); the drift seen is at most 3.3e-14
// relative, so 1e-12 leaves a 30x margin and still catches any real change.
const goldenRel = 1e-12

// checker verifies reports: against the goldens and the whole assertion
// manifest at the golden seeds, against the manifest's scale-invariant
// checks elsewhere, and against their own first answer on every repeat.
type checker struct {
	manifest *golden.Manifest
	goldens  map[string]*golden.Value // by artifact ID
	first    map[string][32]byte      // by (analysis seed, ID)
}

// loadChecker reads the manifest and goldens from the repository root.
func loadChecker(root string) (*checker, error) {
	m, err := golden.LoadManifest(filepath.Join(root, "testdata", "assertions.json"))
	if err != nil {
		return nil, err
	}
	c := &checker{manifest: m, goldens: make(map[string]*golden.Value), first: make(map[string][32]byte)}
	for _, e := range broadband.Experiments() {
		data, err := os.ReadFile(golden.GoldenPath(filepath.Join(root, "testdata", "golden"), e.ID))
		if err != nil {
			return nil, err
		}
		v, err := golden.Parse(data)
		if err != nil {
			return nil, fmt.Errorf("golden %s: %w", e.ID, err)
		}
		c.goldens[e.ID] = v
	}
	return c, nil
}

// marshal is the golden layer's canonical encoding of a report.
func marshal(rep broadband.Report) (*golden.Value, []byte, error) {
	v, err := golden.ToValue(rep)
	if err != nil {
		return nil, nil, err
	}
	return v, v.Encode(), nil
}

// verify returns every problem with one report computed on the golden
// world at analysis seed aseed; encoded is its canonical encoding.
func (c *checker) verify(id string, aseed uint64, v *golden.Value, encoded []byte) []string {
	var out []string
	key := fmt.Sprintf("%d/%s", aseed, id)
	d := digestOf(encoded)
	if first, ok := c.first[key]; !ok {
		c.first[key] = d
	} else if first != d {
		out = append(out, fmt.Sprintf("%s seed %d: bytes differ from the first pass", id, aseed))
	}
	atGolden := aseed == goldenSeed
	if atGolden {
		opts := golden.Options{DefaultRel: goldenRel, Tolerances: c.manifest.Tolerances, Artifact: id}
		for _, diff := range golden.Compare(c.goldens[id], v, opts) {
			out = append(out, fmt.Sprintf("%s: golden drift %s", id, diff))
		}
	}
	for _, viol := range golden.EvalChecks(v, c.manifest.Checks(id), !atGolden) {
		out = append(out, fmt.Sprintf("%s seed %d: %s", id, aseed, viol))
	}
	return out
}
