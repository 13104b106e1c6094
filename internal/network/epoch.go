package network

import (
	"fmt"
	"slices"

	"ripple/internal/fault"
	"ripple/internal/mobility"
	"ripple/internal/pkt"
	"ripple/internal/radio"
	"ripple/internal/routing"
	"ripple/internal/sim"
)

// MobilityKind selects a station mobility model for time-varying worlds.
type MobilityKind int

const (
	// MobilityStatic keeps every station at its declared position for the
	// whole run — the pre-mobility behaviour, and the default.
	MobilityStatic MobilityKind = iota
	// MobilityWaypoint is the classic random waypoint model: straight legs
	// to uniform targets at uniform speeds, with optional pauses.
	MobilityWaypoint
	// MobilityMarkov is place-transition mobility: stations hop between a
	// fixed set of gathering places under a symmetric Markov chain.
	MobilityMarkov
)

// String names the kind for sweep labels and flags.
func (k MobilityKind) String() string {
	switch k {
	case MobilityStatic:
		return "static"
	case MobilityWaypoint:
		return "waypoint"
	case MobilityMarkov:
		return "markov"
	default:
		return fmt.Sprintf("MobilityKind(%d)", int(k))
	}
}

// DefaultMobilityEpoch is the default epoch length of a time-varying
// world. It matches DefaultRouteEpoch so that, under dynamic routing, a
// topology change and the re-route that reacts to it land on the same
// boundary (the swap is scheduled first).
const DefaultMobilityEpoch = 500 * sim.Millisecond

// MobilitySpec configures station motion. The zero value is
// MobilityStatic: no motion, no epoch worlds, bit-identical behaviour to
// a config without the field.
type MobilitySpec struct {
	Kind MobilityKind
	// Epoch is the interval between world snapshots (0 selects
	// DefaultMobilityEpoch). Positions change only at epoch boundaries:
	// within an epoch the world is as immutable as a static one.
	Epoch sim.Time
	// Seed drives the trajectories. It is deliberately separate from
	// Config.Seed — worlds must stay seed-independent so one World serves
	// every seed-run of a campaign cell — and 0 selects 1.
	Seed uint64
	// MinSpeed and MaxSpeed bound waypoint leg speeds in m/s (both 0
	// selects 5–15 m/s, vehicular-pedestrian mix).
	MinSpeed, MaxSpeed float64
	// Pause is the waypoint post-arrival rest time.
	Pause sim.Time
	// Places is the Markov model's number of gathering places (0 derives
	// one from the population size).
	Places int
	// Stay is the Markov per-epoch stay probability (0 selects 0.9).
	Stay float64
}

// active reports whether the spec produces motion at all.
func (s MobilitySpec) active() bool { return s.Kind != MobilityStatic }

// epochLen resolves the epoch length.
func (s MobilitySpec) epochLen() sim.Time {
	if s.Epoch > 0 {
		return s.Epoch
	}
	return DefaultMobilityEpoch
}

// seed resolves the trajectory seed.
func (s MobilitySpec) seed() uint64 {
	if s.Seed != 0 {
		return s.Seed
	}
	return 1
}

// model builds the trajectory stepper over the initial positions.
func (s MobilitySpec) model(initial []radio.Pos) (mobility.Model, error) {
	switch s.Kind {
	case MobilityWaypoint:
		minS, maxS := s.MinSpeed, s.MaxSpeed
		if maxS <= 0 {
			maxS = 15
		}
		if minS <= 0 {
			minS = 5
		}
		if minS > maxS {
			minS = maxS
		}
		return mobility.NewWaypoint(initial, mobility.WaypointConfig{
			MinSpeed: minS,
			MaxSpeed: maxS,
			Pause:    s.Pause,
			Epoch:    s.epochLen(),
		}, s.seed()), nil
	case MobilityMarkov:
		return mobility.NewMarkov(initial, mobility.MarkovConfig{
			Places: s.Places,
			Stay:   s.Stay,
		}, s.seed()), nil
	default:
		return nil, fmt.Errorf("network: unknown mobility kind %d", int(s.Kind))
	}
}

// buildEpochs extends a freshly built initial World with its epoch
// sequence: one derived World per epoch boundary strictly inside
// (0, Duration). Each epoch world is derived incrementally from its
// predecessor — the link plan by radio's row-patching Rebuild, the sparse
// link table by routing.RebuildSparseTableSym — so on a city-scale world
// with most stations parked, the per-epoch cost is proportional to the
// motion, not the population. With fault injection, epochs whose fault
// overlay changed carry a masked link table (dead stations and blocked
// links removed, noise penalties applied); consecutive epochs with
// identical positions and fault toggle counts share one World. Like
// everything else in the World, the sequence is a pure function of the
// Config's non-seed fields (the trajectory seed lives in MobilitySpec,
// the fault seed in FaultSpec, never Config.Seed).
func (w *World) buildEpochs(cfg *Config) error {
	var model mobility.Model
	if cfg.Mobility.active() {
		m, err := cfg.Mobility.model(cfg.Positions)
		if err != nil {
			return err
		}
		model = m
	}
	w.epochLen = epochLenFor(cfg)
	n := int((cfg.Duration - 1) / w.epochLen)
	if n <= 0 {
		return nil
	}
	pos := append([]radio.Pos(nil), cfg.Positions...)
	prev := w
	var prevCounts, counts []int
	if w.faults != nil {
		prevCounts = w.faults.ToggleCounts(0, nil)
	}
	w.epochs = make([]*World, 0, n)
	for e := 0; e < n; e++ {
		if model != nil {
			model.Step(pos)
		}
		at := sim.Time(e+1) * w.epochLen
		faultsUnchanged := true
		if w.faults != nil {
			counts = w.faults.ToggleCounts(at, counts[:0])
			faultsUnchanged = slices.Equal(prevCounts, counts)
			prevCounts = append(prevCounts[:0], counts...)
		}
		ew := deriveEpoch(cfg, w, prev, pos, at, faultsUnchanged)
		w.epochs = append(w.epochs, ew)
		prev = ew
	}
	return nil
}

// deriveEpoch builds the World of one epoch from its predecessor, the
// epoch's station positions and the fault overlay in effect at the
// boundary. Unlike the initial build, a flow whose route cannot be
// resolved this epoch is not an error: it keeps the previous epoch's
// route — flagged stale when motion disconnected the endpoints, or
// unreachable when the fault overlay did — exactly as a failed in-run
// dynamic recompute keeps the current one. A transient partition must not
// kill the run; Run surfaces the flags as Result.RouteStale and the
// unreachable machinery instead.
func deriveEpoch(cfg *Config, root, prev *World, positions []radio.Pos, at sim.Time, faultsUnchanged bool) *World {
	plan := prev.plan.Rebuild(positions)
	if plan == prev.plan && faultsUnchanged {
		// Nobody moved and no fault toggled this epoch: the predecessor *is*
		// this epoch's world, and both are immutable, so share it outright.
		return prev
	}
	ew := &World{plan: plan, flows: prev.flows}
	fs := root.faults
	var down []bool
	var noise []float64
	if fs != nil {
		ew.masked = fs.MaskedAt(at)
		if ew.masked {
			down = make([]bool, plan.Stations())
			noise = make([]float64, plan.Stations())
			for i := range down {
				down[i] = fs.StationDownAt(pkt.NodeID(i), at)
				noise[i] = fs.NoiseDBAt(pkt.NodeID(i), at)
			}
		}
	}
	var policy routing.Policy
	if cfg.Routing.active() {
		ew.table = epochLinkTable(cfg, fs, prev, plan, at, ew.masked, down, noise)
		if cfg.Routing.needsPolicy() {
			if pol, err := cfg.Routing.build(ew.table, plan.Positions()); err == nil {
				policy = pol
			}
		}
	}
	ew.routes = make([]routing.Path, len(cfg.Flows))
	if fs != nil || policy != nil {
		ew.stale = make([]bool, len(cfg.Flows))
		ew.unreach = make([]bool, len(cfg.Flows))
	}
	for i, f := range cfg.Flows {
		switch {
		case policy != nil:
			p, err := policy.Route(f.Path.Src(), f.Path.Dst(), nil)
			if err != nil {
				p = prev.routes[i]
				// Distinguish "this policy could not route" (geo void, a
				// congestion detour dead end — keep the stale route and let
				// blacklisting limp along) from "the fault overlay cut the
				// destination off" (no path at all in the masked table —
				// drop at the source instead of burning airtime).
				if ew.masked && !tableReachable(ew.table, f.Path.Src(), f.Path.Dst()) {
					ew.unreach[i] = true
				} else {
					ew.stale[i] = true
				}
			}
			ew.routes[i] = p
		case ew.table != nil:
			ew.routes[i] = routing.Resize(ew.table, maskPath(f.Path, down), cfg.Routing.K, cfg.Routing.Rule)
		default:
			ew.routes[i] = maskPath(f.Path, down)
		}
		if down != nil && down[f.Path.Dst()] {
			ew.unreach[i] = true
		}
	}
	return ew
}

// tableReachable reports whether any usable-link path connects src to dst
// in the (fault-masked) table — the arbiter between a policy-specific
// routing failure and a genuinely cut-off destination.
func tableReachable(t *routing.Table, src, dst pkt.NodeID) bool {
	if t == nil {
		return true
	}
	_, err := t.ShortestPath(src, dst)
	return err == nil
}

// maskPath filters crashed intermediate relays out of a declared path
// (endpoints stay — a down destination is handled as unreachable, not by
// rewriting the path).
func maskPath(p routing.Path, down []bool) routing.Path {
	if down == nil {
		return p
	}
	masked := false
	for i := 1; i < len(p)-1; i++ {
		if down[p[i]] {
			masked = true
			break
		}
	}
	if !masked {
		return p
	}
	out := make(routing.Path, 0, len(p))
	for i, nd := range p {
		if i > 0 && i < len(p)-1 && down[nd] {
			continue
		}
		out = append(out, nd)
	}
	return out
}

// epochLinkTable builds an epoch's link table. Without a fault overlay it
// is the incremental rebuild (or a from-scratch clean build when the
// predecessor's table was fault-masked: masked rows must never be copied
// forward). With an overlay in effect the table is built from scratch
// with down stations and blocked links removed and noise penalties
// raising the effective decode threshold — the routing-layer mirror of
// what the medium does to live transmissions.
func epochLinkTable(cfg *Config, fs *fault.Schedule, prev *World, plan *radio.LinkPlan,
	at sim.Time, masked bool, down []bool, noise []float64) *routing.Table {
	if !masked {
		if prev.masked {
			return newLinkTable(cfg, plan)
		}
		return rebuildLinkTable(cfg, prev, plan)
	}
	linkProb := func(a, b pkt.NodeID, d float64) float64 {
		if down[a] || down[b] || fs.LinkBlockedAt(a, b, at) {
			return 0
		}
		rc := cfg.Radio
		if pen := max(noise[a], noise[b]); pen > 0 {
			rc.RXThreshDBm += pen
		}
		return 1 - rc.LossProb(d)
	}
	return routing.NewSparseTableSym(plan.Stations(), func(a pkt.NodeID, yield func(int32, float64)) {
		plan.EachAscNeighbor(int(a), func(j int32, d float64) {
			yield(j, linkProb(a, pkt.NodeID(j), d))
		})
	}, 0.1)
}

// rebuildLinkTable derives an epoch's link table from its predecessor's,
// patched row by row over the new plan's neighbor graph (unmoved pairs
// copy their stored values).
func rebuildLinkTable(cfg *Config, prev *World, plan *radio.LinkPlan) *routing.Table {
	prevPos, newPos := prev.plan.Positions(), plan.Positions()
	moved := make([]bool, plan.Stations())
	unchanged := make([]bool, plan.Stations())
	for i := range moved {
		moved[i] = newPos[i] != prevPos[i]
		unchanged[i] = !moved[i] && plan.RowEqual(prev.plan, i)
	}
	return routing.RebuildSparseTableSym(prev.table, moved, unchanged,
		func(a pkt.NodeID, yield func(int32, float64)) {
			plan.EachAscNeighbor(int(a), yield)
		},
		func(d float64) float64 { return 1 - cfg.Radio.LossProb(d) },
		0.1)
}

// Epochs returns the number of epoch worlds beyond the initial snapshot
// (0 for a static world).
func (w *World) Epochs() int { return len(w.epochs) }

// EpochLen returns the epoch length of a time-varying world (0 for a
// static one).
func (w *World) EpochLen() sim.Time { return w.epochLen }
