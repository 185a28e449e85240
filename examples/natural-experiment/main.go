// Natural experiment: design a custom causal study with the matching
// engine — "does long latency depress demand?" — and validate the design
// with a placebo treatment that must come out null.
//
//	go run ./examples/natural-experiment
package main

import (
	"fmt"
	"log"

	broadband "github.com/nwca/broadband"
)

func main() {
	world, err := broadband.BuildWorld(broadband.WorldConfig{
		Seed: 99, Users: 2200, FCCUsers: 100, Days: 2, SwitchTarget: 50, MinPerCountry: 15,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Populations are views over the columnar user panel: the selected
	// end-host rows, in panel order.
	p := world.Data.Panel()
	dasu := func(keep func(i int) bool) broadband.View {
		v := broadband.View{P: p}
		for i := 0; i < p.Len(); i++ {
			if p.Vantage[i] == broadband.VantageDasu && keep(i) {
				v.Idx = append(v.Idx, int32(i))
			}
		}
		return v
	}
	peakNoBT := func(p *broadband.Panel) []float64 { return p.UsagePeakNoBT }

	// Split the end-host population by latency.
	fast := dasu(func(i int) bool { return p.RTT[i] <= 0.128 })
	slow := dasu(func(i int) bool { return p.RTT[i] > 0.512 })
	fmt.Printf("populations: %d low-latency, %d high-latency users\n\n", fast.Len(), slow.Len())

	// The real experiment: H = low-latency users impose higher peak demand,
	// after matching away capacity, loss and market prices.
	matcher := broadband.Matcher{Confounders: []broadband.Confounder{
		broadband.ByCapacity(), broadband.ByLoss(),
		broadband.ByAccessPrice(), broadband.ByUpgradeCost(),
	}}
	exp := broadband.Experiment{
		Name:      "low latency raises demand",
		Treatment: fast,
		Control:   slow,
		Matcher:   matcher,
		Outcome:   peakNoBT,
	}
	res, err := exp.Run(nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("real treatment:   ", res)
	for _, b := range res.Balance {
		fmt.Println("  balance:", b)
	}

	// The placebo: an odd user ID cannot cause anything. The same machinery
	// must report chance-level agreement — if it does not, the design (not
	// the world) is broken.
	odd := dasu(func(i int) bool { return p.ID[i]%2 == 1 })
	even := dasu(func(i int) bool { return p.ID[i]%2 == 0 })
	placebo := broadband.Experiment{
		Name:      "placebo: odd user id",
		Treatment: odd,
		Control:   even,
		Matcher: broadband.Matcher{Confounders: []broadband.Confounder{
			broadband.ByCapacity(), broadband.ByRTT(), broadband.ByLoss(),
		}},
		Outcome: peakNoBT,
	}
	pres, err := placebo.Run(nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println("placebo treatment:", pres)
	if pres.Sig.Significant() {
		fmt.Println("!! the placebo came out significant — distrust the design")
	} else {
		fmt.Println("placebo is null, as it must be")
	}
}
