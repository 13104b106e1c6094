package main

import (
	"fmt"
	"time"

	"ripple/internal/campaign"
	"ripple/internal/experiments"
	"ripple/internal/network"
	"ripple/internal/pkt"
	"ripple/internal/routing"
	"ripple/internal/sim"
	"ripple/internal/topology"
)

// splitmix64 is the seed mixer every derived seed comes from.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// deriveSeeds returns n nonzero seeds for one purpose of one workload
// seed, so run seeds, city layouts and mobility seeds never share a
// stream.
func deriveSeeds(seed uint64, purpose string, n int) []uint64 {
	h := seed
	for _, c := range []byte(purpose) {
		h = splitmix64(h ^ uint64(c))
	}
	out := make([]uint64, n)
	for i := range out {
		h = splitmix64(h)
		out[i] = h%1_000_000_007 + 1
	}
	return out
}

// experimentRound runs the named experiments of internal/experiments as
// one round, routing every grid they declare through gridExec.
func experimentRound(names []string, seeds []uint64, dur sim.Time) roundFunc {
	runners := map[string]experiments.Runner{}
	for _, r := range experiments.All() {
		runners[r.Name] = r
	}
	return func(env *roundEnv) *round {
		rd := &round{}
		dig := newDigester()
		rs := env.tr.begin("round", 0, 0)
		defer env.tr.end(rs)
		x := newGridExec(env, rd, dig, rs)
		opt := experiments.Options{Seeds: seeds, Duration: dur, Pool: env.pool, RunGrid: x.runGrid}
		for _, name := range names {
			tabs, err := runners[name].Run(opt)
			if err != nil {
				rd.fail("%s: %v", name, err)
				continue
			}
			for _, t := range tabs {
				fmt.Fprintf(dig.h, "%s\n", t.Format())
			}
		}
		rd.digest = dig.sum()
		return rd
	}
}

// paper-tcp: bulk TCP and web transfers over the paper's tens-of-station
// grids, three seeds per cell.
func paperTCPRound(seed uint64) roundFunc {
	return experimentRound([]string{"motivation", "fig3", "fig6b", "fig7", "fig8"},
		deriveSeeds(seed, "paper-tcp/run", 3), 200*sim.Millisecond)
}

// paper-voip: Table III at the paper's 10 s run length, three seeds per cell.
func paperVoIPRound(seed uint64) roundFunc {
	return experimentRound([]string{"table3"}, deriveSeeds(seed, "paper-voip/run", 3), 10*sim.Second)
}

// City sizes and run shape of city-mobile.
const (
	cityCount    = 3
	cityStations = 2500
	citySeeds    = 12
	cityDuration = 300 * sim.Millisecond
	cityEpoch    = 100 * sim.Millisecond
)

// cityConfig is the city-scale scenario of internal/experiments'
// scaling sweep — an n-station jittered block grid under the city radio
// profile, RIPPLE, ETX routes and one paced CBR flow per ~500 stations —
// with Markov mobility, so every world derives its epoch worlds.
func cityConfig(n int, layoutSeed, mobilitySeed uint64) network.Config {
	top, p := topology.CityN(n, layoutSeed)
	nFlows := max(n/500, 4)
	span := min(5, p.Cols-1) // ≈5 blocks: a multi-hop route
	flows := make([]network.FlowSpec, nFlows)
	for i := range flows {
		gr := (i * p.Rows) / nFlows
		sc := (i * 3) % (p.Cols - span)
		flows[i] = network.FlowSpec{
			ID:             i + 1,
			Path:           routing.Path{pkt.NodeID(gr*p.Cols + sc), pkt.NodeID(gr*p.Cols + sc + span)},
			Kind:           network.CBRTraffic,
			CBRInterval:    20 * sim.Millisecond,
			CBRPacketBytes: 1000,
		}
	}
	return network.Config{
		Positions: top.Positions,
		Radio:     topology.CityRadio(),
		Scheme:    network.Ripple,
		Flows:     flows,
		Duration:  cityDuration,
		Routing:   network.RoutingSpec{Kind: network.RouteETX},
		Mobility:  network.MobilitySpec{Kind: network.MobilityMarkov, Epoch: cityEpoch, Seed: mobilitySeed},
	}
}

func cityGrid(seed uint64) *campaign.Grid {
	layouts := deriveSeeds(seed, "city-mobile/layout", cityCount)
	mobility := deriveSeeds(seed, "city-mobile/mobility", cityCount)
	labels := make([]string, cityCount)
	for i := range labels {
		labels[i] = fmt.Sprintf("city%d", i)
	}
	return &campaign.Grid{
		Name:  "city-mobile",
		Axes:  []campaign.Axis{campaign.A("city", labels...)},
		Seeds: deriveSeeds(seed, "city-mobile/run", citySeeds),
		Build: func(pt campaign.Point) (network.Config, error) {
			i := pt.Index("city")
			return cityConfig(cityStations, layouts[i], mobility[i]), nil
		},
	}
}

// city-mobile: a few city worlds per round, each run for a short time
// under several seeds.
func cityRound(seed uint64) roundFunc {
	g := cityGrid(seed)
	return func(env *roundEnv) *round {
		rd := &round{}
		dig := newDigester()
		rs := env.tr.begin("round", 0, 0)
		defer env.tr.end(rs)
		newGridExec(env, rd, dig, rs).runGrid(g)
		rd.digest = dig.sum()
		return rd
	}
}

// timeRound runs one round and fills in its wall time.
func timeRound(rf roundFunc, env *roundEnv) *round {
	t := time.Now()
	rd := rf(env)
	rd.wall = time.Since(t) - rd.paused
	return rd
}
