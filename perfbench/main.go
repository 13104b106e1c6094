// Command perfbench is the repository's benchmark. It drives four
// workloads, two of which BENCHMARK.json lists, through the public
// functions of the simulator's layers, checks every output, and prints
// end-to-end metrics from an untraced pass or, with --trace 1, per-layer
// metrics from a traced pass. The last line of its output is one JSON
// object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload paper-tcp --seed 1 --seconds 50 --trace 0
//	bash perfbench/run.sh -write-spec BENCHMARK.json
//	bash perfbench/run.sh -bounds base.jsonl candidate.jsonl
//
// See README.md for the workloads, the metric map and the A/B recipe.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"ripple/internal/campaign/pool"
)

// buildDir is the checkout-local directory for build output, scratch
// files and span dumps.
const buildDir = ".bench_build"

// dropped lists what the benchmark measures but leaves out of
// BENCHMARK.json, with the reason; every header prints it.
var dropped = []string{
	"fail_frac is printed below but not in BENCHMARK.json: it reads 0 on every workload, and the result line's attempted/failed carry it",
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	workload := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", runSeconds, "host seconds to measure")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: add a traced pass and print per-layer metrics")
	spec := fs.String("write-spec", "", "write the BENCHMARK.json contract to this path and exit")
	bounds := fs.Bool("bounds", false, "compare result lines: -bounds BASE CANDIDATE (files of result JSON lines)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *spec != "":
		if err := writeSpec(*spec); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	case *bounds:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -bounds wants BASE and CANDIDATE files")
			return 2
		}
		return runBounds(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	w, ok := findWorkload(*workload)
	if !ok || (*traceFlag != 0 && *traceFlag != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload one of %s, --trace 0 or 1, --seconds > 0\n", strings.Join(names, ", "))
		return 2
	}
	res, err := benchmark(w, *seed, *seconds, *traceFlag == 1, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the last line of the output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tally counts attempts and failures over every round of a process.
type tally struct {
	cellUnits         bool
	attempted, failed int
	errs              []string
}

func (t *tally) add(rd *round, ref [32]byte, what string) {
	units := rd.runs
	if t.cellUnits {
		units = rd.cells
	}
	t.attempted += units
	failed := rd.failed
	if len(rd.errs) == 0 && rd.digest != ref {
		failed = units
		rd.fail("%s digest %x differs from the warm-up round's %x", what, rd.digest[:8], ref[:8])
	}
	t.failed += failed
	t.errs = append(t.errs, rd.errs...)
}

// measure runs rounds until the budget is spent, and at least minRounds.
func measure(rf roundFunc, env *roundEnv, budget time.Duration, minRounds int, ref [32]byte, t *tally, what string, progress io.Writer) []*round {
	var rounds []*round
	start := time.Now()
	var last time.Duration
	shown := start
	for len(rounds) < minRounds || time.Since(start)+last/2 < budget {
		t0 := time.Now()
		rd := timeRound(rf, env)
		last = time.Since(t0)
		t.add(rd, ref, what)
		rounds = append(rounds, rd)
		if progress != nil && time.Since(shown) >= time.Second {
			shown = time.Now()
			fmt.Fprintf(progress, "perfbench: %s round %d: %.3fs wall, %.4fs setup, %d runs\n",
				what, len(rounds), rd.wall.Seconds(), rd.setup.Seconds(), rd.runs)
		}
	}
	return rounds
}

func benchmark(w workloadSpec, seed uint64, seconds float64, traced bool, stdout, stderr io.Writer) (*result, error) {
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	tmp := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	env := &roundEnv{pool: pool.New(nproc), workers: nproc, tmp: tmp}
	rf := w.newRound(seed)

	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%v\n", w.name, seed, seconds, traced)
	fmt.Fprintf(stdout, "nproc=%d GOMAXPROCS=%d pool_width=%d dist_workers=%d go=%s load=closed-loop batch, one process\n",
		nproc, runtime.GOMAXPROCS(0), env.pool.Workers(), env.workers, runtime.Version())
	for _, d := range dropped {
		fmt.Fprintf(stdout, "dropped: %s\n", d)
	}
	for _, m := range workloads {
		if m.manual != "" {
			fmt.Fprintf(stdout, "dropped: workload %s is %s\n", m.name, m.manual)
		}
	}

	t := &tally{cellUnits: w.cellUnits}
	warm := timeRound(rf, env)
	ref := warm.digest
	t.add(warm, ref, "warm-up")
	fmt.Fprintf(stderr, "perfbench: %s warm-up round %.2fs, %d runs, %d cells\n", w.name, warm.wall.Seconds(), warm.runs, warm.cells)

	budget := time.Duration(seconds * float64(time.Second))
	metricsOut := map[string]metricValue{}
	if !traced {
		plain := measure(rf, env, budget, 2, ref, t, "untraced", stderr)
		for name, v := range endToEndMetrics(plain, 2*warm.runs, stdout) {
			m, _ := findMetric(endToEnd, name)
			metricsOut[name] = metricValue{v, m.unit}
		}
	} else {
		layers, err := tracedPass(w, seed, rf, env, budget, ref, t, stdout)
		if err != nil {
			return nil, err
		}
		for name, v := range layers {
			m, _ := findMetric(perLayer, name)
			metricsOut[name] = metricValue{v, m.unit}
		}
	}

	if w.cellUnits {
		checkDistInProcess(seed, env, ref, t, stdout)
	}
	fmt.Fprintf(stdout, "fail_frac %.6g (%d of %d %s)\n", ratio(float64(t.failed), float64(t.attempted)),
		t.failed, t.attempted, map[bool]string{true: "cells", false: "runs"}[w.cellUnits])
	fmt.Fprintf(stdout, "digest sha256:%x (warm-up; every round matched it: %v)\n", ref, t.failed == 0)
	for i, e := range t.errs {
		if i == 20 {
			fmt.Fprintf(stdout, "check: ... %d more\n", len(t.errs)-i)
			break
		}
		fmt.Fprintf(stdout, "check failed: %s\n", e)
	}
	return &result{Correct: t.failed == 0 && len(t.errs) == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metricsOut}, nil
}

// checkDistInProcess runs the dist-cells grid in-process once, outside
// the measurement, and checks that it hashes like the coordinator's
// assembled result.
func checkDistInProcess(seed uint64, env *roundEnv, ref [32]byte, t *tally, stdout io.Writer) {
	local := *env
	local.tr, local.keep = nil, false
	d, err := inProcessDigest(&local, distGrid(seed))
	if err != nil {
		t.errs = append(t.errs, fmt.Sprintf("in-process dist-cells grid: %v", err))
		return
	}
	if d != ref {
		t.errs = append(t.errs, fmt.Sprintf("in-process digest %x differs from coordinator digest %x", d[:8], ref[:8]))
	}
	fmt.Fprintf(stdout, "dist digest: coordinator sha256:%x, in-process sha256:%x, equal: %v\n", ref, d, d == ref)
}

// endToEndMetrics computes and prints the end-to-end metrics of a pass.
// tailN is the sample count the tail percentile is chosen from: the runs
// of two rounds, which every run of the benchmark measures at least.
func endToEndMetrics(rounds []*round, tailN int, out io.Writer) map[string]float64 {
	var setup, runsPS, cellsPS, heap, all []float64
	for _, rd := range rounds {
		work := (rd.wall - rd.setup).Seconds()
		setup = append(setup, rd.setup.Seconds())
		runsPS = append(runsPS, ratio(float64(rd.runs), work))
		cellsPS = append(cellsPS, ratio(float64(rd.cells), work))
		heap = append(heap, float64(rd.liveHeap)/1e6)
		all = append(all, rd.runMS...)
	}
	p, ok := tailPercentile(tailN)
	if !ok {
		p = 50
	}
	m := map[string]float64{
		"setup_s":      median(setup),
		"runs_per_s":   median(runsPS),
		"cells_per_s":  median(cellsPS),
		"run_ms_p50":   percentile(all, 50),
		"run_ms_tail":  percentile(all, p),
		"live_heap_mb": median(heap),
		"peak_rss_mb":  peakRSSMB(),
	}
	fmt.Fprintf(out, "rounds measured: %d (medians over rounds unless noted)\n", len(rounds))
	for _, spec := range endToEnd {
		note := ""
		switch spec.name {
		case "run_ms_p50":
			note = fmt.Sprintf("  (p50 of %d runs)", len(all))
		case "run_ms_tail":
			note = fmt.Sprintf("  (p%g of %d runs; chosen so >=10 of the %d runs every run measures lie beyond it)", p, len(all), tailN)
		case "peak_rss_mb":
			note = "  (VmHWM at end of workload)"
		}
		fmt.Fprintf(out, "%-14s %.6g %s%s\n", spec.name, m[spec.name], spec.unit, note)
	}
	return m
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	return 0
}

// runtimeCounters reads the runtime metrics the gc.* layer metrics come
// from.
type runtimeCounters struct {
	gcCPU, totalCPU       float64
	allocBytes, allocObjs uint64
	cycles                uint64
}

func (a runtimeCounters) plus(b runtimeCounters) runtimeCounters {
	return runtimeCounters{a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU,
		a.allocBytes + b.allocBytes, a.allocObjs + b.allocObjs, a.cycles + b.cycles}
}

func (a runtimeCounters) minus(b runtimeCounters) runtimeCounters {
	return runtimeCounters{a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU,
		a.allocBytes - b.allocBytes, a.allocObjs - b.allocObjs, a.cycles - b.cycles}
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	return runtimeCounters{f(0), f(1), u(2), u(3), u(4)}
}

// traceBlock is the length of each block of the traced pass.
const traceBlock = time.Second

// tracedPass alternates blocks of untraced and traced rounds until the
// budget is spent, so a drifting host slows both alike and
// trace.overhead_frac compares like with like. Traced blocks record spans
// and run under a CPU profile. The set-up layers are probed afterwards,
// outside any round. It returns the per-layer metrics.
func tracedPass(w workloadSpec, seed uint64, rf roundFunc, env *roundEnv, budget time.Duration,
	ref [32]byte, t *tally, out io.Writer) (map[string]float64, error) {
	tr := newTracer()
	tenv := *env
	tenv.tr = tr
	var plain, rounds []*round
	var samples []profSample
	var gc runtimeCounters // summed over the traced blocks
	for start := time.Now(); len(rounds) < 2 || time.Since(start) < budget; {
		plain = append(plain, measure(rf, env, traceBlock, 1, ref, t, "untraced", nil)...)
		// The first traced round keeps its cells for the probes.
		tenv.keep = len(rounds) == 0
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		before := readRuntime()
		blk := measure(rf, &tenv, traceBlock, 1, ref, t, "traced", nil)
		gc = gc.plus(readRuntime().minus(before))
		pprof.StopCPUProfile()
		ss, err := decodeProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		samples = append(samples, ss...)
		if tenv.keep {
			for _, rd := range blk[1:] {
				rd.kept = nil
			}
		}
		rounds = append(rounds, blk...)
	}
	fmt.Fprintf(out, "traced pass: %d traced rounds alternating with %d untraced rounds; digests compared against the warm-up round\n",
		len(rounds), len(plain))

	m := map[string]float64{}
	var c counters
	var setup, wall time.Duration
	var runNS int64
	var tracedWall, plainWall []float64
	for _, rd := range rounds {
		c.merge(rd.count)
		setup += rd.setup
		wall += rd.wall
		runNS += rd.runNS
		tracedWall = append(tracedWall, rd.wall.Seconds())
	}
	for _, rd := range plain {
		plainWall = append(plainWall, rd.wall.Seconds())
	}
	m["trace.overhead_frac"] = ratio(median(tracedWall), median(plainWall)) - 1
	m["network.setup_frac"] = ratio(setup.Seconds(), wall.Seconds())
	m["network.build_world_ms"] = tr.meanMS("network.BuildWorld")
	m["campaign.plan_ms"] = tr.meanMS("campaign.Plan")
	m["campaign.assemble_ms"] = tr.meanMS("campaign.Assemble")

	runs := float64(c.runs)
	m["sim.events_per_run"] = ratio(float64(c.events), runs)
	m["sim.ns_per_event"] = ratio(float64(runNS), float64(c.events))
	m["radio.decode_ratio"] = ratio(float64(c.delivered), float64(c.delivered+c.collided+c.headerErr+c.halfDuplex))
	m["mac.retry_ratio"] = ratio(float64(c.retries), float64(c.txData))
	m["mac.drops_per_run"] = ratio(float64(c.macDrops+c.qDrops), runs)
	m["forward.tx_per_delivered"] = ratio(float64(c.txFrames), float64(c.pktsDelivered))
	m["forward.relay_cancel_ratio"] = ratio(float64(c.relayCancels), float64(c.relays+c.relayCancels))
	m["forward.duplicate_ratio"] = ratio(float64(c.duplicates), float64(c.rxData))
	m["pkt.in_use_end"] = ratio(float64(c.poolInUse), runs)

	m["gc.cpu_share"] = ratio(gc.gcCPU, gc.totalCPU)
	m["gc.alloc_bytes_per_event"] = ratio(float64(gc.allocBytes), float64(c.events))
	m["gc.allocs_per_run"] = ratio(float64(gc.allocObjs), runs)
	m["gc.cycles"] = ratio(float64(gc.cycles), float64(len(rounds)))

	// Pool busy share: unit time over width × the time the pool (or, on
	// dist-cells, the worker set) was running.
	var busy, span time.Duration
	width := env.pool.Workers()
	var dm map[string]float64
	var err error
	if w.cellUnits {
		width = env.workers
		busy, span = tr.total("dist.RunCell"), tr.total("dist.RunGrid")
		dm, err = distLayers(tr, rounds, env.tmp, out)
	} else {
		busy = tr.total("network.BuildWorld") + tr.total("network.Run")
		span = tr.total("campaign.pool")
		var mismatch error
		dm, mismatch, err = distProbe(env, w.name, rounds[0].kept, out)
		if mismatch != nil {
			t.errs = append(t.errs, mismatch.Error())
		}
	}
	if err != nil {
		return nil, err
	}
	for k, v := range dm {
		m[k] = v
	}
	m["campaign.pool_busy_frac"] = ratio(busy.Seconds(), float64(width)*span.Seconds())

	shares := layerShares(samples)
	for _, l := range []string{"sim", "radio", "mac", "forward", "core", "transport", "pkt", "routing"} {
		m[l+".cpu_share"] = shares[l]
	}
	fmt.Fprintf(out, "cpu profile: %d samples; shares by innermost ripple/internal frame:", len(samples))
	for _, l := range sortedKeys(shares) {
		fmt.Fprintf(out, " %s=%.3f", l, shares[l])
	}
	fmt.Fprintln(out)

	for k, v := range probe(tr, rounds[0].kept) {
		m[k] = v
	}
	if err := os.MkdirAll(filepath.Join(buildDir, "trace"), 0o755); err == nil {
		path := filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d.json", w.name, seed))
		if err := tr.write(path); err == nil {
			fmt.Fprintf(out, "spans: %d written to %s\n", len(tr.spans), path)
		}
	}
	for _, spec := range perLayer {
		fmt.Fprintf(out, "%-28s %.6g %s\n", spec.name, m[spec.name], spec.unit)
	}
	return m, nil
}

// runBounds reads two files of result lines and checks the candidate's
// end-to-end medians against the base's within each metric's bound.
func runBounds(basePath, candPath string, stdout, stderr io.Writer) int {
	base, err := readResults(basePath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	cand, err := readResults(candPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	bad := boundsCheck(endToEnd, base, cand)
	for _, m := range endToEnd {
		fmt.Fprintf(stdout, "%-14s base %.6g  candidate %.6g %s  (bound %.0f%%)\n",
			m.name, median(base[m.name]), median(cand[m.name]), m.unit, 100*m.bound)
	}
	for _, b := range bad {
		fmt.Fprintln(stdout, "out of bound:", b)
	}
	if len(bad) > 0 {
		return 1
	}
	fmt.Fprintln(stdout, "within bounds")
	return 0
}

// readResults collects metric values from every result line in a file.
func readResults(path string) (map[string][]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string][]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), "{") {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for name, v := range r.Metrics {
			out[name] = append(out[name], v.Value)
		}
	}
	return out, nil
}
