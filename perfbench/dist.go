package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ripple/internal/campaign"
	"ripple/internal/dist"
	"ripple/internal/network"
	"ripple/internal/routing"
	"ripple/internal/sim"
	"ripple/internal/stats"
	"ripple/internal/topology"
)

// Shape of dist-cells: 2–5-hop lines × DCF/RIPPLE × traffic × BER, each
// cell a few tens of ms of simulated time under two seeds. The traffic
// axis is one TCP transfer or one CBR stream at several rates (interval
// 0 saturates).
const (
	distDuration = 10 * sim.Millisecond
	distSeeds    = 2
)

var (
	distHops    = []int{2, 3, 4, 5}
	distSchemes = []network.SchemeKind{network.DCF, network.Ripple}
	distTraffic = []struct {
		kind     network.TrafficKind
		interval sim.Time
	}{{network.FTP, 0}, {network.CBRTraffic, 0}, {network.CBRTraffic, 2 * sim.Millisecond}, {network.CBRTraffic, 5 * sim.Millisecond}}
	distBERs = []float64{0, 1e-6, 1e-5}
)

func distGrid(seed uint64) *campaign.Grid {
	label := func(n int, f func(i int) string) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	return &campaign.Grid{
		Name: "dist-cells",
		Axes: []campaign.Axis{
			campaign.A("hops", label(len(distHops), func(i int) string { return fmt.Sprint(distHops[i]) })...),
			campaign.A("scheme", label(len(distSchemes), func(i int) string { return distSchemes[i].String() })...),
			campaign.A("traffic", label(len(distTraffic), func(i int) string { return fmt.Sprint(distTraffic[i]) })...),
			campaign.A("ber", label(len(distBERs), func(i int) string { return fmt.Sprint(distBERs[i]) })...),
		},
		Seeds:    deriveSeeds(seed, "dist-cells/run", distSeeds),
		Duration: distDuration,
		Build: func(pt campaign.Point) (network.Config, error) {
			top, path := topology.Line(distHops[pt.Index("hops")])
			tf := distTraffic[pt.Index("traffic")]
			cfg := network.Config{
				Positions: top.Positions,
				Scheme:    distSchemes[pt.Index("scheme")],
				Flows:     []network.FlowSpec{{ID: 1, Path: routing.Path(path), Kind: tf.kind, CBRInterval: tf.interval}},
			}
			cfg.Normalize()
			cfg.Radio.BitErrorRate = distBERs[pt.Index("ber")]
			return cfg, nil
		},
	}
}

// countingRW counts the protocol bytes a worker connection carries.
type countingRW struct {
	rw io.ReadWriter
	n  *atomic.Int64
}

func (c countingRW) Read(p []byte) (int, error) {
	n, err := c.rw.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingRW) Write(p []byte) (int, error) {
	n, err := c.rw.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// benchCells is the dist.CellSet the workers serve: one cell is one
// world build plus its seed-runs, run one after another on the worker's
// goroutine (the workers themselves are the parallelism), with the same
// output checks and per-run timing as the in-process workloads. The
// payload is the per-seed []*network.Result, as dist.GridCells sends it.
type benchCells struct {
	plan *campaign.Plan
	cfgs []network.Config
	tr   *tracer
	// parent is the span of the worker's ServeGrid call.
	parent int

	mu    *sync.Mutex
	rd    *round
	count *counters
}

func (b *benchCells) Fingerprint() string { return b.plan.Fingerprint() }
func (b *benchCells) NumCells() int       { return b.plan.NumCells() }
func (b *benchCells) RunsPerCell() int    { return len(b.plan.Seeds()) }

func (b *benchCells) RunCell(c int) (any, map[string]stats.State, error) {
	cs := b.tr.begin("dist.RunCell", b.parent, 0)
	defer b.tr.end(cs)
	cfg := b.cfgs[c]
	ws := b.tr.begin("network.BuildWorld", cs, 0)
	w, err := network.BuildWorld(cfg)
	b.tr.end(ws)
	if err != nil {
		return nil, nil, err
	}
	cfg.World = w
	seeds := b.plan.Seeds()
	results := make([]*network.Result, len(seeds))
	runMS := make([]float64, len(seeds))
	var runNS int64
	for s, seed := range seeds {
		run := cfg
		run.Seed = seed
		sp := b.tr.begin("network.Run", cs, b.tr.newRun())
		t := time.Now()
		res, err := checkedRun(run)
		d := time.Since(t)
		b.tr.end(sp)
		if err != nil {
			return nil, nil, fmt.Errorf("seed %d: %w", seed, err)
		}
		results[s] = res
		runMS[s] = float64(d) / 1e6
		runNS += int64(d)
	}
	b.mu.Lock()
	b.rd.runMS = append(b.rd.runMS, runMS...)
	b.rd.runNS += runNS
	for _, r := range results {
		b.count.add(r)
	}
	b.mu.Unlock()
	return results, dist.ResultStats(results), nil
}

// distRound is what a dist-cells round adds to a round.
type distRound struct {
	fingerprint string
	bytes       int64
	ckptBytes   int64
	payloads    [][]byte
}

// distCellsRound runs the grid through a coordinator with checkpoint and
// WAL on and nproc in-process workers over synchronous pipes.
func distCellsRound(seed uint64) roundFunc {
	g := distGrid(seed)
	return func(env *roundEnv) *round {
		rd := &round{}
		if err := runDist(env, g, rd); err != nil {
			rd.fail("%v", err)
			rd.failed = rd.cells
		}
		rd.runs = rd.cells * distSeeds
		return rd
	}
}

func runDist(env *roundEnv, g *campaign.Grid, rd *round) error {
	tr := env.tr
	rs := tr.begin("round", 0, 0)
	defer tr.end(rs)
	dir, err := os.MkdirTemp(env.tmp, "dist-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	t0 := time.Now()
	plan, cfgs, err := expand(tr, rs, g)
	if err != nil {
		return err
	}
	rd.cells = plan.NumCells()
	ckPath := filepath.Join(dir, "ckpt.json")
	wal, err := dist.CreateWAL(filepath.Join(dir, "wal"))
	if err != nil {
		return err
	}
	defer wal.Close()
	coord := dist.NewCoordinator(dist.Options{
		Checkpoint:      dist.NewCheckpoint(ckPath),
		CheckpointEvery: 16,
		WAL:             wal,
	})
	var bytes atomic.Int64
	var serving, working sync.WaitGroup
	var pipes []net.Conn
	defer func() {
		coord.Close()
		for _, p := range pipes {
			p.Close()
		}
		working.Wait()
		serving.Wait()
	}()
	// Like dist.WorkerRunGrid in a worker process, every worker expands
	// the grid declaration into its own plan, which must fingerprint the
	// same as the coordinator's.
	workers := make([]*dist.Worker, env.workers)
	cells := make([]*benchCells, env.workers)
	var mu sync.Mutex
	for i := range workers {
		wplan, wcfgs, err := expand(tr, rs, g)
		if err != nil {
			return err
		}
		if wplan.Fingerprint() != plan.Fingerprint() {
			return fmt.Errorf("worker %d plan fingerprint %s, coordinator %s", i, wplan.Fingerprint(), plan.Fingerprint())
		}
		cells[i] = &benchCells{plan: wplan, cfgs: wcfgs, tr: tr, mu: &mu, rd: rd, count: &rd.count}
		srv, cli := net.Pipe()
		pipes = append(pipes, srv, cli)
		serving.Add(1)
		go func() {
			defer serving.Done()
			coord.Serve(dist.NewConn(srv))
		}()
		w, err := dist.NewWorker(countingRW{cli, &bytes}, fmt.Sprintf("w%d", i))
		if err != nil {
			return err
		}
		workers[i] = w
	}
	rd.setup = time.Since(t0)
	if tr == nil {
		rd.pauseForHeap()
	}

	workErr := make([]error, len(workers))
	for i, w := range workers {
		working.Add(1)
		go func() {
			defer working.Done()
			cells[i].parent = tr.begin("dist.ServeGrid", rs, 0)
			workErr[i] = w.ServeGrid(cells[i])
			tr.end(cells[i].parent)
			pipes[2*i+1].Close()
		}()
	}
	gs := tr.begin("dist.RunGrid", rs, 0)
	out, err := coord.RunGrid(dist.GridSpec{
		Fingerprint: plan.Fingerprint(),
		NumCells:    plan.NumCells(),
		RunsPerCell: len(plan.Seeds()),
	})
	tr.end(gs)
	working.Wait()
	for _, e := range workErr {
		if err == nil && e != nil {
			err = e
		}
	}
	if err != nil {
		return err
	}
	perCell := make([][]*network.Result, plan.NumCells())
	for i, raw := range out.Payloads {
		if err := json.Unmarshal(raw, &perCell[i]); err != nil {
			return fmt.Errorf("cell %d payload: %w", i, err)
		}
	}
	as := tr.begin("campaign.Assemble", rs, 0)
	res, err := plan.Assemble(perCell)
	tr.end(as)
	if err != nil {
		return err
	}
	dig := newDigester()
	if err := dig.grid(g.Name, res); err != nil {
		return err
	}
	rd.digest = dig.sum()
	rd.dist.fingerprint = plan.Fingerprint()
	rd.dist.bytes = bytes.Load()
	if tr != nil {
		rd.dist.payloads = out.Payloads // replayed through a fresh WAL after the pass
	}
	if fi, err := os.Stat(ckPath); err == nil {
		rd.dist.ckptBytes = fi.Size()
	}
	if env.keep {
		for c := range cfgs {
			rd.kept = append(rd.kept, keptCell{cfg: cfgs[c], seeds: plan.Seeds(), results: perCell[c]})
		}
	}
	return nil
}

// expand plans a grid and rebuilds its cell configs.
func expand(tr *tracer, parent int, g *campaign.Grid) (*campaign.Plan, []network.Config, error) {
	s := tr.begin("campaign.Plan", parent, 0)
	defer tr.end(s)
	plan, err := g.Plan()
	if err != nil {
		return nil, nil, err
	}
	cfgs, err := cellConfigs(g, plan)
	return plan, cfgs, err
}

// inProcessDigest runs the dist-cells grid through the in-process grid
// executor; the coordinator's assembled result must hash the same.
func inProcessDigest(env *roundEnv, g *campaign.Grid) ([32]byte, error) {
	rd := &round{}
	dig := newDigester()
	if _, err := newGridExec(env, rd, dig, 0).runGrid(g); err != nil {
		return [32]byte{}, err
	}
	return dig.sum(), nil
}

// distProbe runs the cells a workload kept from its first traced round
// once more through the dist coordinator, with checkpoint and WAL on and
// nproc workers, so the dist.* metrics say what distributing this
// workload would cost. The coordinator's assembled results must hash the
// same as the kept in-process ones; a mismatch is returned as mismatch.
func distProbe(env *roundEnv, name string, kept []keptCell, out io.Writer) (m map[string]float64, mismatch, err error) {
	labels := make([]string, len(kept))
	local := &campaign.Result{Cells: make([]campaign.Cell, len(kept))}
	for i, k := range kept {
		labels[i] = fmt.Sprint(i)
		local.Cells[i].Seeds = k.results
	}
	g := &campaign.Grid{
		Name:  name + "/dist-probe",
		Axes:  []campaign.Axis{campaign.A("cell", labels...)},
		Seeds: kept[0].seeds,
		Build: func(pt campaign.Point) (network.Config, error) { return kept[pt.Index("cell")].cfg, nil },
	}
	penv := *env
	penv.tr, penv.keep = newTracer(), false
	rd := &round{}
	if err := runDist(&penv, g, rd); err != nil {
		return nil, nil, err
	}
	dig := newDigester()
	if err := dig.grid(g.Name, local); err != nil {
		return nil, nil, err
	}
	if d := dig.sum(); d != rd.digest {
		mismatch = fmt.Errorf("dist probe digest %x differs from the traced round's %x", rd.digest[:8], d[:8])
	}
	m, err = distLayers(penv.tr, []*round{rd}, env.tmp, out)
	return m, mismatch, err
}

// distLayers computes the dist.* layer metrics of the traced rounds.
func distLayers(tr *tracer, rounds []*round, tmp string, out io.Writer) (map[string]float64, error) {
	var bytes, ckpt int64
	var cells int
	var payloads [][]byte
	for _, rd := range rounds {
		bytes += rd.dist.bytes
		ckpt += rd.dist.ckptBytes
		cells += rd.cells
		payloads = append(payloads, rd.dist.payloads...)
	}
	dir, err := os.MkdirTemp(tmp, "wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	us, err := walAppendMicros(dir, rounds[0].dist.fingerprint, payloads)
	if err != nil {
		return nil, err
	}
	p, ok := tailPercentile(len(us))
	if !ok {
		p = 50
	}
	fmt.Fprintf(out, "dist.wal_append_us: %d appends replayed, tail is p%g\n", len(us), p)
	return map[string]float64{
		"dist.cell_busy_ms":         tr.meanMS("dist.RunCell"),
		"dist.overhead_ms_per_cell": ratio(float64(tr.totalSelf("dist.ServeGrid"))/1e6, float64(cells)),
		"dist.bytes_per_cell":       ratio(float64(bytes), float64(cells)),
		"dist.ckpt_bytes":           ratio(float64(ckpt), float64(len(rounds))),
		"dist.wal_append_us_p50":    percentile(us, 50),
		"dist.wal_append_us_tail":   percentile(us, p),
	}, nil
}

// walAppendMicros replays delivered cell payloads through a fresh WAL
// and returns the host µs of each fsync'd Append.
func walAppendMicros(dir, fingerprint string, payloads [][]byte) ([]float64, error) {
	wal, err := dist.CreateWAL(filepath.Join(dir, "replay.wal"))
	if err != nil {
		return nil, err
	}
	defer wal.Close()
	out := make([]float64, 0, len(payloads))
	for c, p := range payloads {
		t := time.Now()
		if err := wal.Append(fingerprint, c, p, nil); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(t))/1e3)
	}
	return out, nil
}
