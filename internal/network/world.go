package network

import (
	"fmt"

	"ripple/internal/fault"
	"ripple/internal/pkt"
	"ripple/internal/radio"
	"ripple/internal/routing"
	"ripple/internal/sim"
)

// World is the immutable, seed-independent snapshot of a scenario: the
// radio link plan (per-neighbor power/distance/delay attributes and
// neighbor lists, sparse when pruning is on), the ETX link table of the
// routing layer (sparse over the plan's neighbor graph when pruning is
// on), and every flow's resolved initial route. All of it is a pure
// function of the Config's
// non-seed fields, so a campaign cell that fans S seed-runs of one
// scenario across the worker pool can build the World once and share it
// by reference — the per-run cost collapses to the mutable state (engine,
// medium, schemes, transports).
//
// Immutability contract: a World is never written after BuildWorld
// returns, and network.Run only reads it. Per-run mutable derivatives —
// the RouteBook (routes change each epoch under dynamic policies), the
// Medium (counters, station PHY state), dynamic policy instances — are
// created fresh per run *from* the World. Sharing one World across any
// number of concurrent runs is therefore safe; the shared-world test in
// this package hammers one instance from many goroutines under -race to
// enforce the contract.
//
// Seed independence is equally load-bearing: nothing in the World depends
// on Config.Seed, and building it draws no random numbers, so a run on a
// prebuilt World is RNG-bit-identical to a run that builds everything
// itself.
type World struct {
	plan  *radio.LinkPlan
	table *routing.Table // nil when the routing spec is inactive
	// routes holds each flow's resolved initial path, indexed like
	// Config.Flows. For static specs this is the declared (possibly
	// K-sized) path; for policy specs it is the policy's unloaded route.
	routes []routing.Path
	flows  int
	// Time-varying worlds (Config.Mobility or Config.Faults active):
	// epochLen is the epoch length and epochs[e] the world in effect from
	// (e+1)·epochLen on, each derived incrementally from its predecessor
	// (see buildEpochs). Epoch worlds are as immutable and seed-independent
	// as the initial one — trajectories draw from MobilitySpec.Seed, fault
	// schedules from FaultSpec.Seed, never Config.Seed — so the whole
	// sequence is shared across pool workers like any other World.
	// A static world has epochLen 0 and no epochs.
	epochLen sim.Time
	epochs   []*World

	// faults is the materialised fault timeline (root world only; nil
	// without fault injection). Like everything else here it is immutable
	// and seed-independent.
	faults *fault.Schedule
	// Per-flow route health of an epoch world, indexed like Config.Flows
	// (nil on the initial world and on fault-free, policy-free epochs):
	// stale flags flows whose route recompute failed this epoch (the
	// previous route was kept), unreach flags flows whose destination is
	// down or cut off by faults this epoch. masked records that the
	// epoch's link table was built with the fault overlay applied.
	stale   []bool
	unreach []bool
	masked  bool
}

// BuildWorld precomputes the seed-independent part of a scenario. The
// returned World matches any Config whose non-seed fields equal cfg's;
// attach it via Config.World to share it across runs.
func BuildWorld(cfg Config) (*World, error) {
	cfg.Normalize()
	if err := validate(&cfg); err != nil {
		return nil, err
	}
	w := &World{
		plan:  radio.NewLinkPlan(cfg.Radio, cfg.Positions),
		flows: len(cfg.Flows),
	}
	var policy routing.Policy
	if cfg.Routing.active() {
		w.table = newLinkTable(&cfg, w.plan)
		if cfg.Routing.needsPolicy() {
			pol, err := cfg.Routing.build(w.table, w.plan.Positions())
			if err != nil {
				return nil, err
			}
			policy = pol
		}
	}
	w.routes = make([]routing.Path, len(cfg.Flows))
	for i, f := range cfg.Flows {
		switch {
		case policy != nil:
			p, err := policy.Route(f.Path.Src(), f.Path.Dst(), nil)
			if err != nil {
				return nil, fmt.Errorf("network: flow %d: %s route: %w", f.ID, policy.Name(), err)
			}
			w.routes[i] = p
		case w.table != nil:
			w.routes[i] = routing.Resize(w.table, f.Path, cfg.Routing.K, cfg.Routing.Rule)
		default:
			w.routes[i] = f.Path
		}
	}
	if cfg.Faults.Active() {
		w.faults = fault.Build(cfg.Faults, cfg.Duration, cfg.Positions,
			exemptEndpoints(&cfg), planLinks(w.plan))
	}
	if cfg.Mobility.active() || w.faults != nil {
		if err := w.buildEpochs(&cfg); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// exemptEndpoints flags every flow source and destination as immune to
// station churn, so degradation curves measure relay failures rather than
// trivial source or sink death. Partitions and link flaps can still make
// a destination unreachable.
func exemptEndpoints(cfg *Config) []bool {
	ex := make([]bool, len(cfg.Positions))
	for _, f := range cfg.Flows {
		ex[f.Path.Src()] = true
		ex[f.Path.Dst()] = true
	}
	return ex
}

// planLinks enumerates the plan's neighbor pairs (a < b), the candidate
// set for link flaps.
func planLinks(plan *radio.LinkPlan) [][2]pkt.NodeID {
	var out [][2]pkt.NodeID
	for a := 0; a < plan.Stations(); a++ {
		plan.EachAscNeighbor(a, func(j int32, _ float64) {
			if int(j) > a {
				out = append(out, [2]pkt.NodeID{pkt.NodeID(a), pkt.NodeID(j)})
			}
		})
	}
	return out
}

// epochLenFor resolves the epoch length of a time-varying config: an
// active mobility spec wins (fault overlays ride its boundaries), a
// fault-only config uses the fault spec's epoch.
func epochLenFor(cfg *Config) sim.Time {
	if cfg.Mobility.active() {
		return cfg.Mobility.epochLen()
	}
	return cfg.Faults.EpochLen()
}

// check cheaply verifies that the snapshot plausibly matches the run's
// config. It cannot prove full equality (that is the caller's contract);
// it catches the gross mismatches — wrong topology, wrong flow set —
// that would otherwise corrupt a run silently.
func (w *World) check(cfg *Config) error {
	if w.plan.Stations() != len(cfg.Positions) {
		return fmt.Errorf("network: World built for %d stations, config has %d",
			w.plan.Stations(), len(cfg.Positions))
	}
	if w.flows != len(cfg.Flows) {
		return fmt.Errorf("network: World built for %d flows, config has %d",
			w.flows, len(cfg.Flows))
	}
	if w.table == nil && cfg.Routing.active() {
		return fmt.Errorf("network: World built without a link table, config routing is active")
	}
	if (w.faults != nil) != cfg.Faults.Active() {
		return fmt.Errorf("network: World fault schedule (%v) does not match config faults (%v)",
			w.faults != nil, cfg.Faults.Active())
	}
	if (w.epochLen > 0) != (cfg.Mobility.active() || cfg.Faults.Active()) {
		return fmt.Errorf("network: World time-variance (epochLen %v) does not match config (mobility %s, faults %v)",
			w.epochLen, cfg.Mobility.Kind, cfg.Faults.Active())
	}
	if w.epochLen > 0 {
		if want := epochLenFor(cfg); w.epochLen != want {
			return fmt.Errorf("network: World built with epoch %v, config wants %v",
				w.epochLen, want)
		}
		if want := int((cfg.Duration - 1) / w.epochLen); want != len(w.epochs) {
			return fmt.Errorf("network: World holds %d epoch worlds, config duration %v needs %d",
				len(w.epochs), cfg.Duration, want)
		}
	}
	return nil
}

// newLinkTable builds the routing-layer ETX table over the same radio
// model the medium uses, so the metric always matches the channel the
// packets see (the minProb floor matches the public Router).
//
// The table is built over exactly the link plan's neighbor graph: every
// pair when unpruned, the in-range pairs when pruned. Either way it equals
// the all-pairs routing.NewTable: a pruned pair's mean power sits
// PruneSigma shadowing deviations below the carrier-sense threshold, which
// (with CSThreshDBm ≤ RXThreshDBm, true of every radio profile) puts its
// delivery probability orders of magnitude below the 0.1 minProb floor.
// The loss model is a pure function of distance, so forward and reverse
// probabilities coincide and the symmetric constructor applies; iterating
// the plan's CSR rows hands it each stored distance without a per-pair
// lookup.
func newLinkTable(cfg *Config, plan *radio.LinkPlan) *routing.Table {
	return routing.NewSparseTableSym(plan.Stations(), func(a pkt.NodeID, yield func(int32, float64)) {
		plan.EachAscNeighbor(int(a), func(j int32, d float64) {
			yield(j, 1-cfg.Radio.LossProb(d))
		})
	}, 0.1)
}
