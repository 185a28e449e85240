package dataset

import (
	"fmt"

	"github.com/nwca/broadband/internal/market"
)

// LoadDir reads a dataset previously written by SaveDir (users.csv,
// switches.csv, plans.csv — or their .gz variants written with
// SaveOptions.Gzip; a sharded users-*-of-*.csv panel written out-of-core
// loads the same way) and reconstructs the per-market summaries from the
// plan survey. Tables are consumed through the streaming readers, one
// record at a time, so transient memory stays constant per row. Country
// metadata (region, GDP per capita) is rejoined from the built-in market
// profiles; plans for countries without a profile are kept but contribute
// no market summary.
func LoadDir(dir string) (*Dataset, error) {
	d := &Dataset{}
	var err error
	if d.Users, err = loadUsers(dir); err != nil {
		return nil, fmt.Errorf("dataset: loading users: %w", err)
	}
	if d.Switches, err = loadTable(dir, switchesTable); err != nil {
		return nil, fmt.Errorf("dataset: loading switches: %w", err)
	}
	if d.Plans, err = loadTable(dir, plansTable); err != nil {
		return nil, fmt.Errorf("dataset: loading plans: %w", err)
	}
	d.Markets = summarizeMarkets(d.Plans)
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("dataset: loaded data invalid: %w", err)
	}
	d.Freeze()
	return d, nil
}

// loadUsers reads the user table through UserStream, so a directory
// written out-of-core (users-*-of-*.csv shards, DESIGN.md §8) loads with
// the same call as a monolithic one.
func loadUsers(dir string) ([]User, error) {
	us, err := StreamUsersDir(dir)
	if err != nil {
		return nil, err
	}
	defer us.Close()
	return readAll[User](us)
}

// loadTable reads table t from dir (plain or .gz) through the strict
// reader.
func loadTable[T any](dir string, t *table[T]) ([]T, error) {
	path, _ := tablePath(dir, t.base)
	rc, err := openPath(path)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	r, err := newReader(t, rc, path)
	if err != nil {
		return nil, err
	}
	return readAll[T](r)
}

// summarizeMarkets rebuilds the per-market summaries from the survey rows,
// rejoining country metadata from the built-in profiles. Markets with no
// ≥1 Mbps plan carry no summary.
func summarizeMarkets(plans []market.Plan) map[string]market.MarketSummary {
	byCountry := make(map[string]*market.Catalog)
	for _, p := range plans {
		cat := byCountry[p.Country]
		if cat == nil {
			cat = &market.Catalog{}
			if prof, ok := market.FindProfile(p.Country); ok {
				cat.Country = prof.Country
			} else {
				cat.Country = market.Country{Code: p.Country, Name: p.Country}
			}
			byCountry[p.Country] = cat
		}
		cat.Plans = append(cat.Plans, p)
	}
	out := make(map[string]market.MarketSummary, len(byCountry))
	for code, cat := range byCountry {
		if sum, err := market.Summarize(*cat); err == nil {
			out[code] = sum
		}
	}
	return out
}
