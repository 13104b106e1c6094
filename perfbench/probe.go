package main

import (
	"slices"
	"sort"
	"time"

	"ripple/internal/mobility"
	"ripple/internal/network"
	"ripple/internal/pkt"
	"ripple/internal/radio"
	"ripple/internal/routing"
)

// maxProbeCells caps how many kept cells the setup probes visit.
const maxProbeCells = 32

// probe times the setup layers one call at a time on the traced pass's
// first round of cells, outside any timed round. BuildWorld runs the
// same calls internally; here each gets a span of its own:
//
//   - radio.NewLinkPlan, and the routing table over it as BuildWorld
//     builds it (sparse over the plan's neighbours when pruned, dense
//     otherwise), then a shortest path per flow;
//   - one incremental radio Rebuild after a Markov mobility step;
//   - the epoch worlds: BuildWorld with mobility minus BuildWorld
//     without, per epoch (static cells get a three-epoch Markov spec);
//   - network.Average over the cell's seed results.
func probe(tr *tracer, kept []keptCell) map[string]float64 {
	if len(kept) > maxProbeCells {
		step := float64(len(kept)) / maxProbeCells
		var pick []keptCell
		for i := 0; i < maxProbeCells; i++ {
			pick = append(pick, kept[int(float64(i)*step)])
		}
		kept = pick
	}
	var links, epochMS []float64
	for _, k := range kept {
		cfg := k.cfg
		cfg.Normalize()

		s := tr.begin("probe.radio.NewLinkPlan", 0, 0)
		plan := radio.NewLinkPlan(cfg.Radio, cfg.Positions)
		tr.end(s)
		links = append(links, float64(plan.Links()))

		s = tr.begin("probe.routing.NewTable", 0, 0)
		table := linkTable(&cfg, plan)
		tr.end(s)
		for _, f := range cfg.Flows {
			s = tr.begin("probe.routing.ShortestPath", 0, 0)
			table.ShortestPath(f.Path.Src(), f.Path.Dst())
			tr.end(s)
		}

		pos := slices.Clone(cfg.Positions)
		mobility.NewMarkov(pos, mobility.MarkovConfig{}, 1).Step(pos)
		s = tr.begin("probe.radio.Rebuild", 0, 0)
		plan.Rebuild(pos)
		tr.end(s)

		mob, static := cfg, cfg
		static.Mobility = network.MobilitySpec{}
		if mob.Mobility.Kind == network.MobilityStatic {
			mob.Mobility = network.MobilitySpec{Kind: network.MobilityMarkov, Epoch: max(cfg.Duration/4, 1)}
		}
		t := time.Now()
		_, errS := network.BuildWorld(static)
		dStatic := time.Since(t)
		t = time.Now()
		wm, errM := network.BuildWorld(mob)
		dMob := time.Since(t)
		if errS == nil && errM == nil && wm.Epochs() > 0 {
			epochMS = append(epochMS, max(float64(dMob-dStatic)/1e6, 0)/float64(wm.Epochs()))
		}

		s = tr.begin("probe.network.Average", 0, 0)
		network.Average(k.results)
		tr.end(s)
	}
	return map[string]float64{
		"radio.linkplan_ms":  tr.meanMS("probe.radio.NewLinkPlan"),
		"routing.table_ms":   tr.meanMS("probe.routing.NewTable"),
		"routing.path_us":    1e3 * tr.meanMS("probe.routing.ShortestPath"),
		"radio.rebuild_ms":   tr.meanMS("probe.radio.Rebuild"),
		"radio.links":        mean(links),
		"network.epoch_ms":   mean(epochMS),
		"network.average_ms": tr.meanMS("probe.network.Average"),
	}
}

// linkTable builds the routing layer's ETX table over a link plan the
// way network.BuildWorld does.
func linkTable(cfg *network.Config, plan *radio.LinkPlan) *routing.Table {
	if plan.Pruned() {
		return routing.NewSparseTableSym(plan.Stations(), func(a pkt.NodeID, yield func(int32, float64)) {
			plan.EachAscNeighbor(int(a), func(j int32, d float64) {
				yield(j, 1-cfg.Radio.LossProb(d))
			})
		}, 0.1)
	}
	return routing.NewTable(plan.Stations(), func(a, b pkt.NodeID) float64 {
		return 1 - cfg.Radio.LossProb(plan.Distance(int(a), int(b)))
	}, 0.1)
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
