package main

import (
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"hash"
	"runtime"
	"runtime/metrics"
	"time"

	"ripple/internal/audit"
	"ripple/internal/campaign"
	"ripple/internal/campaign/pool"
	"ripple/internal/network"
	"ripple/internal/phys"
)

// roundFunc runs one round of a workload. Every round of a workload runs
// the same inputs, so every round must give the same digest.
type roundFunc func(env *roundEnv) *round

// roundEnv is what a round runs with.
type roundEnv struct {
	pool    *pool.Pool // campaign pool, nproc wide
	workers int        // dist worker count
	tr      *tracer    // nil in the untraced pass
	tmp     string     // directory for WAL and checkpoint files
	// keep asks the round to keep its cell configs and results for the
	// layer probes that follow the traced pass.
	keep bool
}

// round is what one round measured and checked.
type round struct {
	wall   time.Duration // host time, without the paused heap measurements
	setup  time.Duration // plan expansion and world builds (dist: until workers are ready)
	paused time.Duration
	// liveHeap is the largest live heap seen after a setup and a forced GC.
	liveHeap uint64
	runMS    []float64 // host ms of each network.Run call
	runNS    int64
	runs     int // seed-runs attempted
	cells    int // cells attempted
	failed   int // runs (dist-cells: cells) that failed a check
	errs     []string
	digest   [32]byte
	count    counters
	kept     []keptCell
	dist     distRound
}

// counters sums the deterministic counts of network.Result over runs.
type counters struct {
	runs                                        int
	events                                      uint64
	delivered, collided, headerErr, halfDuplex  uint64
	txFrames, txData, retries, macDrops, qDrops uint64
	relays, relayCancels, duplicates, rxData    uint64
	pktsDelivered                               int64
	poolInUse                                   int64
}

func (c *counters) add(r *network.Result) {
	c.runs++
	c.events += r.Events
	c.delivered += r.Medium.FramesDelivered
	c.collided += r.Medium.FramesCollided
	c.headerErr += r.Medium.HeaderErrors
	c.halfDuplex += r.Medium.HalfDuplexLost
	c.txFrames += r.MAC.TxFrames
	c.txData += r.MAC.TxData
	c.retries += r.MAC.Retries
	c.macDrops += r.MAC.MACDrops
	c.qDrops += r.MAC.QueueDrops
	c.relays += r.MAC.Relays
	c.relayCancels += r.MAC.RelayCancels
	c.duplicates += r.MAC.Duplicates
	c.rxData += r.MAC.RxData
	for _, f := range r.Flows {
		c.pktsDelivered += f.PktsDelivered
	}
	c.poolInUse += int64(r.PoolInUse)
}

func (c *counters) merge(b counters) {
	c.runs += b.runs
	c.events += b.events
	c.delivered += b.delivered
	c.collided += b.collided
	c.headerErr += b.headerErr
	c.halfDuplex += b.halfDuplex
	c.txFrames += b.txFrames
	c.txData += b.txData
	c.retries += b.retries
	c.macDrops += b.macDrops
	c.qDrops += b.qDrops
	c.relays += b.relays
	c.relayCancels += b.relayCancels
	c.duplicates += b.duplicates
	c.rxData += b.rxData
	c.pktsDelivered += b.pktsDelivered
	c.poolInUse += b.poolInUse
}

// keptCell is one cell's config and seed results, kept for the probes.
type keptCell struct {
	cfg     network.Config
	seeds   []uint64
	results []*network.Result
}

func (rd *round) fail(format string, args ...any) {
	rd.errs = append(rd.errs, fmt.Sprintf(format, args...))
}

// pauseForHeap forces a GC and records the live heap. Its time is
// excluded from the round's wall time. The traced pass skips it, so
// forced collections do not show in the gc.* metrics.
func (rd *round) pauseForHeap() {
	t := time.Now()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		rd.liveHeap = max(rd.liveHeap, s[0].Value.Uint64())
	}
	rd.paused += time.Since(t)
}

// queueCapacity is the most packets a healthy run can leave in its
// interface queues: every station's queue limit plus the slack front
// reinsertion may add (see internal/audit).
func queueCapacity(cfg *network.Config) int {
	limit := cfg.Phy.QueueLimit
	if cfg.Phy.SIFS == 0 {
		limit = phys.Default().QueueLimit
	}
	return len(cfg.Positions) * (limit + audit.QueueBoundSlack)
}

// checkedRun runs one seed and applies the output checks: no error, no
// panic, at least one event, and no more packets in use at the end than
// the queues can hold.
func checkedRun(cfg network.Config) (res *network.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	res, err = network.Run(cfg)
	switch {
	case err != nil:
		return nil, err
	case res.Events == 0:
		return nil, fmt.Errorf("no events")
	case res.PoolInUse > queueCapacity(&cfg):
		return nil, fmt.Errorf("%d packets in use at end, queues hold %d", res.PoolInUse, queueCapacity(&cfg))
	}
	return res, nil
}

// digester hashes results in a fixed order. gob encodes every float by
// its bits, so equal digests mean bit-identical results.
type digester struct {
	h   hash.Hash
	enc *gob.Encoder
}

func newDigester() *digester {
	h := sha256.New()
	return &digester{h: h, enc: gob.NewEncoder(h)}
}

// grid hashes an assembled grid: its name, then every seed result of
// every cell in cell order.
func (d *digester) grid(name string, res *campaign.Result) error {
	fmt.Fprintf(d.h, "grid %s %d\n", name, len(res.Cells))
	for _, c := range res.Cells {
		for _, r := range c.Seeds {
			if err := d.enc.Encode(r); err != nil {
				return err
			}
		}
	}
	return nil
}

func (d *digester) sum() (s [32]byte) {
	copy(s[:], d.h.Sum(nil))
	return s
}

// cellConfigs rebuilds the plan's cell configs from the grid declaration
// (Plan keeps its own copy private), applying the grid's duration the way
// Plan does.
func cellConfigs(g *campaign.Grid, plan *campaign.Plan) ([]network.Config, error) {
	cfgs := make([]network.Config, plan.NumCells())
	for c := range cfgs {
		cfg, err := g.Build(plan.Point(c))
		if err != nil {
			return nil, err
		}
		if g.Duration != 0 {
			cfg.Duration = g.Duration
		}
		cfgs[c] = cfg
	}
	return cfgs, nil
}

// gridExec executes campaign grids in-process the way Grid.Run does —
// plan, one world per cell on the pool, every (cell, seed) run on the
// pool, assemble — while timing each step. It is the experiments'
// Options.RunGrid hook.
type gridExec struct {
	env    *roundEnv
	rd     *round
	dig    *digester
	parent int // round span
}

func newGridExec(env *roundEnv, rd *round, dig *digester, parent int) *gridExec {
	return &gridExec{env: env, rd: rd, dig: dig, parent: parent}
}

func (x *gridExec) runGrid(g *campaign.Grid) (*campaign.Result, error) {
	tr, rd := x.env.tr, x.rd
	gs := tr.begin("campaign.grid", x.parent, 0)
	defer tr.end(gs)

	t0 := time.Now()
	plan, cfgs, err := expand(tr, gs, g)
	if err != nil {
		rd.fail("%s: plan: %v", g.Name, err)
		return nil, err
	}
	seeds := plan.Seeds()
	rd.cells += len(cfgs)
	rd.runs += len(cfgs) * len(seeds)

	ws := tr.begin("campaign.pool", gs, 0)
	err = x.env.pool.Do(len(cfgs), func(c int) error {
		s := tr.begin("network.BuildWorld", ws, 0)
		defer tr.end(s)
		w, err := network.BuildWorld(cfgs[c])
		cfgs[c].World = w
		return err
	})
	tr.end(ws)
	rd.setup += time.Since(t0)
	if err != nil {
		rd.failed += len(cfgs) * len(seeds)
		rd.fail("%s: world: %v", g.Name, err)
		return nil, err
	}
	if tr == nil {
		rd.pauseForHeap()
	}

	perCell := make([][]*network.Result, len(cfgs))
	for c := range perCell {
		perCell[c] = make([]*network.Result, len(seeds))
	}
	runNS := make([]int64, len(cfgs)*len(seeds))
	runErr := make([]error, len(runNS))
	rs := tr.begin("campaign.pool", gs, 0)
	x.env.pool.Do(len(runNS), func(u int) error {
		c, s := u/len(seeds), u%len(seeds)
		cfg := cfgs[c]
		cfg.Seed = seeds[s]
		sp := tr.begin("network.Run", rs, tr.newRun())
		t := time.Now()
		perCell[c][s], runErr[u] = checkedRun(cfg)
		runNS[u] = int64(time.Since(t))
		tr.end(sp)
		return nil
	})
	tr.end(rs)
	var firstErr error
	for u, e := range runErr {
		if e != nil {
			rd.failed++
			rd.fail("%s cell %d seed %d: %v", g.Name, u/len(seeds), seeds[u%len(seeds)], e)
			firstErr = e
		}
		rd.runMS = append(rd.runMS, float64(runNS[u])/1e6)
		rd.runNS += runNS[u]
	}
	if firstErr != nil {
		return nil, firstErr
	}
	for _, rs := range perCell {
		for _, r := range rs {
			rd.count.add(r)
		}
	}
	as := tr.begin("campaign.Assemble", gs, 0)
	res, err := plan.Assemble(perCell)
	tr.end(as)
	if err != nil {
		rd.fail("%s: assemble: %v", g.Name, err)
		return nil, err
	}
	if err := x.dig.grid(g.Name, res); err != nil {
		rd.fail("%s: digest: %v", g.Name, err)
		return nil, err
	}
	if x.env.keep {
		for c := range cfgs {
			cfg := cfgs[c]
			cfg.World = nil
			rd.kept = append(rd.kept, keptCell{cfg: cfg, seeds: seeds, results: perCell[c]})
		}
	}
	return res, nil
}
