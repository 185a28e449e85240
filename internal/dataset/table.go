package dataset

import (
	"github.com/nwca/broadband/internal/market"
	"github.com/nwca/broadband/internal/traffic"
	"github.com/nwca/broadband/internal/unit"
)

// table describes one CSV table of a dataset once: its name in error
// messages, its file name under a dataset directory, its header, the
// per-record codec and the domain check the quarantine applies. Every codec
// step — Reader, Writer, the sharded encoder, the robust reader and the
// loaders — is written once over this descriptor.
//
// encode and decode are mirrors: the field order of one is the field order
// of the other, and of header.
type table[T any] struct {
	name   string // "users", "switches", "plans" — error context
	base   string // file name under a dataset directory
	header []string
	encode func(*rowWriter, *T) error
	decode func(*parser, *T) // conversion errors accumulate on the parser
	domain func(*T) error
}

var usersTable = &table[User]{
	name: "users", base: "users.csv",
	header: []string{
		"id", "country", "vantage", "year", "isp", "network",
		"plan_down_mbps", "plan_up_mbps", "plan_price_usd", "plan_tech", "plan_cap_gb",
		"capacity_mbps", "up_capacity_mbps", "rtt_ms", "web_rtt_ms", "loss_pct",
		"mean_mbps", "peak_mbps", "mean_nobt_mbps", "peak_nobt_mbps", "uses_bt", "archetype",
		"access_price_usd", "upgrade_cost_per_mbps",
	},
	encode: encodeUser, decode: decodeUser, domain: checkUserDomain,
}

func encodeUser(w *rowWriter, u *User) error {
	w.i64(u.ID)
	w.str(u.Country)
	w.int(int(u.Vantage))
	w.int(u.Year)
	w.str(u.ISP)
	w.str(u.NetworkKey)
	w.f64(u.PlanDown.Mbps())
	w.f64(u.PlanUp.Mbps())
	w.f64(u.PlanPrice.Dollars())
	w.int(int(u.PlanTech))
	w.f64(u.PlanCap.GB())
	w.f64(u.Capacity.Mbps())
	w.f64(u.UpCapacity.Mbps())
	w.f64(u.RTT * 1000)
	w.f64(u.WebRTT * 1000)
	w.f64(u.Loss.Percent())
	w.f64(u.Usage.Mean.Mbps())
	w.f64(u.Usage.Peak.Mbps())
	w.f64(u.Usage.MeanNoBT.Mbps())
	w.f64(u.Usage.PeakNoBT.Mbps())
	w.bool(u.UsesBT)
	w.int(int(u.Archetype))
	w.f64(u.AccessPrice.Dollars())
	w.f64(float64(u.UpgradeCost))
	return w.endRow()
}

func decodeUser(p *parser, u *User) {
	rec := p.rec
	*u = User{
		ID:          p.i64(0),
		Country:     rec[1],
		Vantage:     Vantage(p.int(2)),
		Year:        p.int(3),
		ISP:         rec[4],
		NetworkKey:  rec[5],
		PlanDown:    unit.MbpsOf(p.f64(6)),
		PlanUp:      unit.MbpsOf(p.f64(7)),
		PlanPrice:   unit.USD(p.f64(8)),
		PlanTech:    market.Technology(p.int(9)),
		PlanCap:     unit.ByteSize(p.f64(10) * float64(unit.GB)),
		Capacity:    unit.MbpsOf(p.f64(11)),
		UpCapacity:  unit.MbpsOf(p.f64(12)),
		RTT:         p.f64(13) / 1000,
		WebRTT:      p.f64(14) / 1000,
		Loss:        unit.LossFromPercent(p.f64(15)),
		UsesBT:      p.boolAt(20),
		Archetype:   traffic.Archetype(p.int(21)),
		AccessPrice: unit.USD(p.f64(22)),
		UpgradeCost: unit.PerMbps(p.f64(23)),
	}
	u.Usage = UsageSummary{
		Mean:     unit.MbpsOf(p.f64(16)),
		Peak:     unit.MbpsOf(p.f64(17)),
		MeanNoBT: unit.MbpsOf(p.f64(18)),
		PeakNoBT: unit.MbpsOf(p.f64(19)),
	}
}

var switchesTable = &table[Switch]{
	name: "switches", base: "switches.csv",
	header: []string{
		"user_id", "country", "from_net", "to_net", "from_down_mbps", "to_down_mbps",
		"before_mean_mbps", "before_peak_mbps", "before_mean_nobt_mbps", "before_peak_nobt_mbps",
		"after_mean_mbps", "after_peak_mbps", "after_mean_nobt_mbps", "after_peak_nobt_mbps",
	},
	encode: encodeSwitch, decode: decodeSwitch, domain: checkSwitchDomain,
}

func encodeSwitch(w *rowWriter, s *Switch) error {
	w.i64(s.UserID)
	w.str(s.Country)
	w.str(s.FromNet)
	w.str(s.ToNet)
	w.f64(s.FromDown.Mbps())
	w.f64(s.ToDown.Mbps())
	w.f64(s.Before.Mean.Mbps())
	w.f64(s.Before.Peak.Mbps())
	w.f64(s.Before.MeanNoBT.Mbps())
	w.f64(s.Before.PeakNoBT.Mbps())
	w.f64(s.After.Mean.Mbps())
	w.f64(s.After.Peak.Mbps())
	w.f64(s.After.MeanNoBT.Mbps())
	w.f64(s.After.PeakNoBT.Mbps())
	return w.endRow()
}

func decodeSwitch(p *parser, s *Switch) {
	rec := p.rec
	*s = Switch{
		UserID:   p.i64(0),
		Country:  rec[1],
		FromNet:  rec[2],
		ToNet:    rec[3],
		FromDown: unit.MbpsOf(p.f64(4)),
		ToDown:   unit.MbpsOf(p.f64(5)),
		Before: UsageSummary{
			Mean: unit.MbpsOf(p.f64(6)), Peak: unit.MbpsOf(p.f64(7)),
			MeanNoBT: unit.MbpsOf(p.f64(8)), PeakNoBT: unit.MbpsOf(p.f64(9)),
		},
		After: UsageSummary{
			Mean: unit.MbpsOf(p.f64(10)), Peak: unit.MbpsOf(p.f64(11)),
			MeanNoBT: unit.MbpsOf(p.f64(12)), PeakNoBT: unit.MbpsOf(p.f64(13)),
		},
	}
}

var plansTable = &table[market.Plan]{
	name: "plans", base: "plans.csv",
	header: []string{
		"country", "isp", "down_mbps", "up_mbps", "price_local", "price_usd",
		"cap_gb", "tech", "dedicated",
	},
	encode: encodePlan, decode: decodePlan, domain: checkPlanDomain,
}

func encodePlan(w *rowWriter, p *market.Plan) error {
	w.str(p.Country)
	w.str(p.ISP)
	w.f64(p.Down.Mbps())
	w.f64(p.Up.Mbps())
	w.f64(p.PriceLocal)
	w.f64(p.PriceUSD.Dollars())
	w.f64(p.Cap.GB())
	w.int(int(p.Tech))
	w.bool(p.Dedicated)
	return w.endRow()
}

func decodePlan(p *parser, pl *market.Plan) {
	rec := p.rec
	*pl = market.Plan{
		Country:    rec[0],
		ISP:        rec[1],
		Down:       unit.MbpsOf(p.f64(2)),
		Up:         unit.MbpsOf(p.f64(3)),
		PriceLocal: p.f64(4),
		PriceUSD:   unit.USD(p.f64(5)),
		Cap:        unit.ByteSize(p.f64(6) * float64(unit.GB)),
		Tech:       market.Technology(p.int(7)),
		Dedicated:  p.boolAt(8),
	}
}
