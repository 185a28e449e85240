package dataset

import (
	"io"
	"reflect"
	"sync"
	"testing"

	"github.com/nwca/broadband/internal/market"
	"github.com/nwca/broadband/internal/stats"
	"github.com/nwca/broadband/internal/traffic"
	"github.com/nwca/broadband/internal/unit"
)

// panelUsers builds a varied user table exercising every panel column:
// several countries, both vantages, multiple years, capped and uncapped
// plans, all archetypes and a spread of technologies.
func panelUsers(n int) []User {
	countries := []string{"US", "JP", "IN", "BW", "SA"}
	techs := []market.Technology{market.DSL, market.Cable, market.Fiber}
	users := make([]User, n)
	for i := range users {
		u := sampleUser(int64(i+1), countries[i%len(countries)], 0.3+float64(i%60)*0.9)
		u.Year = 2011 + i%4
		u.PlanTech = techs[i%len(techs)]
		u.Archetype = traffic.Archetype(i % 5)
		u.WebRTT = 0.02 + float64(i%7)*0.01
		u.RTT = 0.01 + float64(i%40)*0.02
		u.Loss = unit.LossRate(float64(i%15) * 0.001)
		if i%3 == 0 {
			u.Vantage = VantageGateway
		}
		if i%4 == 0 {
			u.PlanCap = unit.ByteSize(int64(i+1) * 50 << 30)
		}
		u.UsesBT = i%2 == 0
		users[i] = u
	}
	return users
}

func TestPanelRoundTrip(t *testing.T) {
	users := panelUsers(97)
	p := BuildPanel(users)
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if p.Len() != len(users) {
		t.Fatalf("Len = %d, want %d", p.Len(), len(users))
	}
	// User → Panel → User is lossless.
	var u User
	for i := range users {
		p.UserAt(i, &u)
		if !reflect.DeepEqual(users[i], u) {
			t.Fatalf("UserAt(%d) mismatch", i)
		}
	}
}

func TestPanelPeakUtilizationMatchesRow(t *testing.T) {
	users := panelUsers(50)
	users[7].Capacity = 0 // degenerate row: utilization must clamp to 0
	users[9].Usage.PeakNoBT = users[9].Capacity * 3
	p := BuildPanel(users)
	for i := range users {
		if got, want := p.PeakUtilization(i), users[i].PeakUtilization(); got != want {
			t.Fatalf("row %d: PeakUtilization = %v, want %v", i, got, want)
		}
	}
}

// Pred, Select and the By* constructors are the row reference for the
// columnar selection: a plain scan over []User, one predicate call per
// row. Where must keep exactly the rows Select keeps, in the same order.
type Pred func(*User) bool

// Select returns the indices of the users satisfying every predicate, in
// ascending order.
func Select(users []User, preds ...Pred) []int32 {
	var out []int32
next:
	for i := range users {
		for _, p := range preds {
			if !p(&users[i]) {
				continue next
			}
		}
		out = append(out, int32(i))
	}
	return out
}

func ByCountry(code string) Pred  { return func(u *User) bool { return u.Country == code } }
func NotCountry(code string) Pred { return func(u *User) bool { return u.Country != code } }
func ByVantage(v Vantage) Pred    { return func(u *User) bool { return u.Vantage == v } }
func ByYear(y int) Pred           { return func(u *User) bool { return u.Year == y } }
func ByTier(t stats.Tier) Pred    { return func(u *User) bool { return stats.TierOf(u.Capacity) == t } }
func ByClass(c stats.CapacityClass) Pred {
	return func(u *User) bool { return c.Contains(u.Capacity) }
}
func CapacityBetween(lo, hi unit.Bitrate) Pred {
	return func(u *User) bool { return u.Capacity > lo && u.Capacity <= hi }
}

// sameSelection fails unless the view holds exactly the rows the reference
// indices name, in the same order, and each materializes to the source row.
func sameSelection(t *testing.T, label string, users []User, want []int32, v View) {
	t.Helper()
	if len(want) != v.Len() {
		t.Fatalf("%s: Select kept %d rows, Where kept %d", label, len(want), v.Len())
	}
	var u User
	for k, i := range want {
		if v.Idx[k] != i {
			t.Fatalf("%s: row %d: Select index %d vs Where index %d", label, k, i, v.Idx[k])
		}
		v.P.UserAt(int(i), &u)
		if !reflect.DeepEqual(users[i], u) {
			t.Fatalf("%s: row %d differs after materialization", label, k)
		}
	}
}

// predPairs are matched row/columnar predicate stacks. sample lists the
// user IDs each stack keeps on sampleDataset's three users (US 9.5 Mbps,
// US 1.9 Mbps, JP 47.5 Mbps; all end-host, 2012).
func predPairs() []struct {
	name   string
	row    []Pred
	col    []ColPred
	sample []int64
} {
	return []struct {
		name   string
		row    []Pred
		col    []ColPred
		sample []int64
	}{
		{"country", []Pred{ByCountry("US")}, []ColPred{ColCountry("US")}, []int64{1, 2}},
		{"not-country", []Pred{NotCountry("IN")}, []ColPred{ColNotCountry("IN")}, []int64{1, 2, 3}},
		{"not-us", []Pred{NotCountry("US")}, []ColPred{ColNotCountry("US")}, []int64{3}},
		{"missing-country", []Pred{ByCountry("ZZ")}, []ColPred{ColCountry("ZZ")}, nil},
		{"missing-not-country", []Pred{NotCountry("ZZ")}, []ColPred{ColNotCountry("ZZ")}, []int64{1, 2, 3}},
		{"vantage", []Pred{ByVantage(VantageGateway)}, []ColPred{ColVantage(VantageGateway)}, nil},
		{"year", []Pred{ByYear(2012)}, []ColPred{ColYear(2012)}, []int64{1, 2, 3}},
		{"vantage-year", []Pred{ByVantage(VantageDasu), ByYear(2012)},
			[]ColPred{ColVantage(VantageDasu), ColYear(2012)}, []int64{1, 2, 3}},
		{"tier", []Pred{ByTier(stats.Tiers()[1])}, []ColPred{ColTier(stats.Tiers()[1])}, []int64{2}},
		{"tier-over-32", []Pred{ByTier(stats.TierOver32)}, []ColPred{ColTier(stats.TierOver32)}, []int64{3}},
		{"class", []Pred{ByClass(stats.ClassOf(unit.MbpsOf(3)))}, []ColPred{ColClass(stats.ClassOf(unit.MbpsOf(3)))}, []int64{2}},
		{"capacity", []Pred{CapacityBetween(unit.MbpsOf(2), unit.MbpsOf(20))},
			[]ColPred{ColCapacityBetween(unit.MbpsOf(2), unit.MbpsOf(20))}, []int64{1}},
		{"stack", []Pred{ByCountry("US"), ByVantage(VantageDasu), ByYear(2011)},
			[]ColPred{ColCountry("US"), ColVantage(VantageDasu), ColYear(2011)}, nil},
		{"empty-stack", nil, nil, []int64{1, 2, 3}},
	}
}

func TestWhereMatchesSelect(t *testing.T) {
	users := panelUsers(200)
	p := BuildPanel(users)
	sample := sampleDataset().Users
	sp := BuildPanel(sample)
	for _, tc := range predPairs() {
		sameSelection(t, tc.name, users, Select(users, tc.row...), p.Where(tc.col...))
		// On the hand-built sample the kept users are known in advance.
		v := sp.Where(tc.col...)
		sameSelection(t, tc.name+" (sample)", sample, Select(sample, tc.row...), v)
		var ids []int64
		for _, i := range v.Idx {
			ids = append(ids, sp.ID[i])
		}
		if !reflect.DeepEqual(ids, tc.sample) {
			t.Errorf("%s: sample kept IDs %v, want %v", tc.name, ids, tc.sample)
		}
	}
}

func TestViewChainingEqualsCombinedWhere(t *testing.T) {
	users := panelUsers(150)
	p := BuildPanel(users)
	combined := p.Where(ColCountry("US"), ColVantage(VantageDasu), ColYear(2011))
	chained := p.Where(ColCountry("US")).Where(ColVantage(VantageDasu)).Where(ColYear(2011))
	if !reflect.DeepEqual(combined.Idx, chained.Idx) {
		t.Fatalf("chained Where = %v, combined = %v", chained.Idx, combined.Idx)
	}
}

func TestViewGatherAndSource(t *testing.T) {
	users := panelUsers(60)
	p := BuildPanel(users)
	v := p.Where(ColVantage(VantageDasu))
	caps := v.Gather(p.Capacity)
	if len(caps) != v.Len() {
		t.Fatalf("Gather returned %d values for %d rows", len(caps), v.Len())
	}
	for k, i := range v.Idx {
		if caps[k] != float64(users[i].Capacity) {
			t.Fatalf("Gather[%d] = %v, want %v", k, caps[k], float64(users[i].Capacity))
		}
	}
	// Source streams the same rows in the same order.
	src := v.Source()
	var u User
	k := 0
	for {
		err := src.Read(&u)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(u, users[v.Idx[k]]) {
			t.Fatalf("Source row %d mismatch", k)
		}
		k++
	}
	if k != v.Len() {
		t.Fatalf("Source yielded %d rows, want %d", k, v.Len())
	}
}

func TestPanelValidateCatchesMismatch(t *testing.T) {
	p := BuildPanel(panelUsers(10))
	p.RTT = p.RTT[:5]
	if err := p.Validate(); err == nil {
		t.Fatal("Validate accepted a ragged panel")
	}
	p2 := BuildPanel(panelUsers(10))
	p2.Country[3] = 99
	if err := p2.Validate(); err == nil {
		t.Fatal("Validate accepted an out-of-range dictionary code")
	}
}

func TestDatasetPanelCache(t *testing.T) {
	d := sampleDataset()
	// Unfrozen: Panel() builds on the fly, no cache write.
	p1 := d.Panel()
	p2 := d.Panel()
	if p1 == p2 {
		t.Fatal("uncached Panel() returned the same instance twice")
	}
	// Freeze caches; Panel() then returns the cached instance.
	f := d.Freeze()
	if got := d.Panel(); got != f {
		t.Fatal("Panel() ignored the frozen cache")
	}
	// Concurrent readers of a frozen dataset all get the cached panel.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if d.Panel() != f {
				t.Error("concurrent Panel() on a frozen dataset built a new panel")
			}
		}()
	}
	wg.Wait()
	// Mutating the row count invalidates the cache.
	d.Users = append(d.Users, sampleUser(99, "US", 5))
	if got := d.Panel(); got == f {
		t.Fatal("Panel() returned a stale cache after Users grew")
	}
	if got := d.Freeze(); got == f {
		t.Fatal("Freeze() kept a stale cache after Users grew")
	}
}

func TestDictDeterminism(t *testing.T) {
	d := NewDict()
	words := []string{"b", "a", "b", "c", "a"}
	var got []uint32
	for _, w := range words {
		got = append(got, d.Intern(w))
	}
	want := []uint32{0, 1, 0, 2, 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Intern codes = %v, want %v (first-appearance order)", got, want)
	}
	if d.Len() != 3 {
		t.Fatalf("Len = %d, want 3", d.Len())
	}
	if d.Value(2) != "c" {
		t.Fatalf("Value(2) = %q, want %q", d.Value(2), "c")
	}
	if _, ok := d.Code("zzz"); ok {
		t.Fatal("Code found a string never interned")
	}
}

// FuzzPanelWhere drives random predicate stacks through both selection
// pipelines: the row reference Select and Panel.Where over columns must
// keep exactly the same rows in the same order.
func FuzzPanelWhere(f *testing.F) {
	f.Add([]byte{0}, uint8(1))
	f.Add([]byte{1, 14, 33}, uint8(7))
	f.Add([]byte{250, 9, 120, 77}, uint8(100))
	f.Fuzz(func(t *testing.T, ops []byte, seed uint8) {
		users := panelUsers(30 + int(seed)%90)
		p := BuildPanel(users)
		countries := []string{"US", "JP", "IN", "BW", "SA", "ZZ"}
		var row []Pred
		var col []ColPred
		for _, b := range ops {
			if len(row) >= 4 {
				break
			}
			arg := int(b / 8)
			switch b % 8 {
			case 0:
				cc := countries[arg%len(countries)]
				row, col = append(row, ByCountry(cc)), append(col, ColCountry(cc))
			case 1:
				cc := countries[arg%len(countries)]
				row, col = append(row, NotCountry(cc)), append(col, ColNotCountry(cc))
			case 2:
				v := Vantage(arg % 2)
				row, col = append(row, ByVantage(v)), append(col, ColVantage(v))
			case 3:
				y := 2010 + arg%6
				row, col = append(row, ByYear(y)), append(col, ColYear(y))
			case 4:
				tier := stats.Tiers()[arg%len(stats.Tiers())]
				row, col = append(row, ByTier(tier)), append(col, ColTier(tier))
			case 5:
				c := stats.ClassOf(unit.KbpsOf(150)) + stats.CapacityClass(arg%12)
				row, col = append(row, ByClass(c)), append(col, ColClass(c))
			case 6:
				lo := unit.MbpsOf(float64(arg % 30))
				hi := lo + unit.MbpsOf(1+float64(arg%25))
				row, col = append(row, CapacityBetween(lo, hi)), append(col, ColCapacityBetween(lo, hi))
			case 7:
				// no-op: vary stack lengths
			}
		}
		sameSelection(t, "fuzz", users, Select(users, row...), p.Where(col...))
	})
}
