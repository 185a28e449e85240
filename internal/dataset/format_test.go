package dataset

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"github.com/nwca/broadband/internal/market"
	"github.com/nwca/broadband/internal/traffic"
	"github.com/nwca/broadband/internal/unit"
)

// The on-disk format is pinned by content hash. Round-trip tests cannot
// catch a change that moves encode and decode together (a reordered
// column, a different float format), yet content-addressed stores key
// datasets by these bytes, so any such change must be deliberate: it shows
// up here as a hash mismatch and requires new constants.

// formatFixture is a hand-built dataset covering every column type: quoted
// strings (comma, quote, leading space, non-ASCII), 17-significant-digit
// and denormal floats, negative and zero values, and both booleans.
func formatFixture() ([]User, []Switch, []market.Plan) {
	isps := []string{"Plain ISP", `Comma, "Quote" & Co`, " leading space", "città-net", ""}
	users := make([]User, 12)
	for i := range users {
		f := float64(i)
		users[i] = User{
			ID:          int64(1000 + 7*i),
			Country:     []string{"US", "JP", "DE", "BR"}[i%4],
			Vantage:     Vantage(i % 2),
			Year:        2011 + i%3,
			ISP:         isps[i%len(isps)],
			NetworkKey:  isps[(i+2)%len(isps)] + "/net" + string(rune('0'+i%10)),
			PlanDown:    unit.MbpsOf(1.5 + f*0.83),
			PlanUp:      unit.MbpsOf((1.5 + f*0.83) / 3),
			PlanPrice:   unit.USD(0.1 + 0.2 + f),
			PlanTech:    market.Technology(i % 3),
			PlanCap:     unit.ByteSize(f * 12.5 * float64(unit.GB)),
			Capacity:    unit.MbpsOf((1.5 + f*0.83) * 0.95),
			UpCapacity:  unit.MbpsOf(1.0 / 3.0 * (f + 1)),
			RTT:         0.005 + f*1e-4/3,
			WebRTT:      0.011 + f/7000,
			Loss:        unit.LossRate(f * 1e-4 / 7),
			UsesBT:      i%3 == 0,
			Archetype:   traffic.Archetype(i % 4),
			AccessPrice: unit.USD(7.77 + f/13),
			UpgradeCost: unit.PerMbps(123456789.12345679 / (f + 1)),
			Usage: UsageSummary{
				Mean:     unit.Bitrate(f * 1234.567 / 9),
				Peak:     unit.MbpsOf(1.5 + f/11),
				MeanNoBT: unit.Bitrate(f * 1e3 / 3),
				PeakNoBT: unit.MbpsOf(f / 17),
			},
		}
	}
	switches := []Switch{
		{
			UserID: 1000, Country: "US", FromNet: "a", ToNet: `b, "c"`,
			FromDown: unit.MbpsOf(2), ToDown: unit.MbpsOf(10.000000000000002),
			Before: UsageSummary{Mean: unit.KbpsOf(95), Peak: unit.KbpsOf(192), MeanNoBT: unit.KbpsOf(1.0 / 3.0)},
			After:  UsageSummary{Mean: unit.KbpsOf(189), Peak: unit.KbpsOf(634), PeakNoBT: unit.Bitrate(8.98846567431158e15)},
		},
		{
			UserID: 1007, Country: "JP", FromNet: " net", ToNet: "net/2",
			FromDown: unit.MbpsOf(0.5), ToDown: unit.MbpsOf(100),
		},
	}
	plans := []market.Plan{
		{Country: "US", ISP: "US-ISP1", Down: unit.MbpsOf(10), Up: unit.MbpsOf(2), PriceLocal: 45, PriceUSD: 45, Tech: market.Cable},
		{Country: "JP", ISP: `JP "Fiber", Ltd`, Down: unit.MbpsOf(1000), Up: unit.MbpsOf(1000), PriceLocal: 5184.000000000001, PriceUSD: unit.USD(0.1 + 0.2), Cap: 150 * unit.GB, Tech: market.Technology(2), Dedicated: true},
		{Country: "DE", ISP: "", Down: unit.MbpsOf(1.0 / 3.0), PriceLocal: 5e-324, PriceUSD: unit.USD(9007199254740993.0)},
	}
	return users, switches, plans
}

func TestCSVFormatPinned(t *testing.T) {
	users, switches, plans := formatFixture()
	for _, c := range []struct {
		table string
		write func(io.Writer) error
		want  string
	}{
		{"users", func(w io.Writer) error { return WriteUsers(w, users) }, wantUsersSHA256},
		{"switches", func(w io.Writer) error { return WriteSwitches(w, switches) }, wantSwitchesSHA256},
		{"plans", func(w io.Writer) error { return WritePlans(w, plans) }, wantPlansSHA256},
	} {
		var buf bytes.Buffer
		if err := c.write(&buf); err != nil {
			t.Fatalf("%s: %v", c.table, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s.csv bytes changed: sha256 %s, want %s\n%s", c.table, got, c.want, buf.Bytes())
		}
	}
}

const (
	wantUsersSHA256    = "ff1f07139c6c75c9bec86673b96046df7011f9943dbcd5890010b916b22f5f74"
	wantSwitchesSHA256 = "8ca923e06643b91c6a6f7868a6c4df567c83abb84893f6028d5befd33e71a9ee"
	wantPlansSHA256    = "3403e6a74890ad911797ea7226bbea488413082e713f5e9619e045b80df1fcbe"
)
