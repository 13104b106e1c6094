package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// The workload seed the benchmark runs by default, and the held-out seed
// that no tuning of the benchmark used: a later speed claim is re-checked
// on the held-out seed (see README.md).
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
// The host time of every workload swings by ±10–20% over a period of one
// to two minutes on a shared host, so a run spans most of a period; 20 s
// runs of the same code spread by over 25% between sets (see README.md).
const runSeconds = 50

// workloadSpec names one workload and why it exists. run executes one
// round of it; rounds of a workload repeat the same inputs.
type workloadSpec struct {
	name, why string
	// manual, when set, says why the workload is left out of
	// BENCHMARK.json. It still runs when named on the command line.
	manual string
	// cellUnits counts attempts and failures in cells instead of
	// seed-runs: a dist-cells cell succeeds or fails as a whole.
	cellUnits bool
	newRound  func(seed uint64) roundFunc
}

// metricSpec is one reported metric. bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts
// as a regression; per-layer metrics carry none.
type metricSpec struct {
	name, unit, better string
	bound              float64
}

var workloads = []workloadSpec{
	{
		name:     "paper-tcp",
		why:      "the paper's TCP grids (Motivation, Fig3, Fig6b, Fig7, Fig8) under DCF/preExOR/MCExOR/RIPPLE: per-event engine path (heap, medium, mac, relays, TCP ACKs)",
		newRound: paperTCPRound,
	},
	{
		name:     "paper-voip",
		why:      "Table III VoIP calls at paper-length 10 s runs: same engine with tiny frames and many flows but no TCP, so a transport change must leave it unmoved",
		manual:   manualReason,
		newRound: paperVoIPRound,
	},
	{
		name:     "city-mobile",
		why:      "city worlds of a few thousand stations with Markov mobility and short runs: world build (sparse link plan, ETX table, Dijkstra, epoch rebuild) dominates",
		newRound: cityRound,
	},
	{
		name:      "dist-cells",
		why:       "many tiny line cells through an internal/dist coordinator with checkpoint and WAL on: framing, leasing, WAL fsync and checkpoint saves dominate",
		cellUnits: true,
		manual:    manualReason,
		newRound:  distCellsRound,
	},
}

// manualReason is why paper-voip and dist-cells are left out of
// BENCHMARK.json.
const manualReason = "run by hand only, not in BENCHMARK.json: the contract's time limit fits two workloads at the run length the host's drift needs"

// contractWorkloads returns the workloads BENCHMARK.json lists.
func contractWorkloads() []workloadSpec {
	var out []workloadSpec
	for _, w := range workloads {
		if w.manual == "" {
			out = append(out, w)
		}
	}
	return out
}

// Bounds: every metric takes the largest bound the contract allows. On a
// shared two-vCPU host the simulator's host time drifts by ±10–30% over
// minutes, and city-mobile's memory varies by ~8% between seeds, because
// each seed lays out different cities (see README.md).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"runs_per_s", "1/s", "higher", 0.25},
	{"cells_per_s", "1/s", "higher", 0.25},
	{"run_ms_p50", "ms", "lower", 0.25},
	{"run_ms_tail", "ms", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

var perLayer = []metricSpec{
	{name: "network.build_world_ms", unit: "ms", better: "lower"},
	{name: "network.epoch_ms", unit: "ms", better: "lower"},
	{name: "network.setup_frac", unit: "frac", better: "lower"},
	{name: "radio.linkplan_ms", unit: "ms", better: "lower"},
	{name: "radio.rebuild_ms", unit: "ms", better: "lower"},
	{name: "radio.links", unit: "count", better: "lower"},
	{name: "routing.table_ms", unit: "ms", better: "lower"},
	{name: "routing.path_us", unit: "us", better: "lower"},
	{name: "campaign.plan_ms", unit: "ms", better: "lower"},
	{name: "sim.events_per_run", unit: "count", better: "lower"},
	{name: "sim.ns_per_event", unit: "ns", better: "lower"},
	{name: "sim.cpu_share", unit: "frac", better: "lower"},
	{name: "radio.cpu_share", unit: "frac", better: "lower"},
	{name: "mac.cpu_share", unit: "frac", better: "lower"},
	{name: "forward.cpu_share", unit: "frac", better: "lower"},
	{name: "core.cpu_share", unit: "frac", better: "lower"},
	{name: "transport.cpu_share", unit: "frac", better: "lower"},
	{name: "pkt.cpu_share", unit: "frac", better: "lower"},
	{name: "routing.cpu_share", unit: "frac", better: "lower"},
	{name: "radio.decode_ratio", unit: "frac", better: "higher"},
	{name: "mac.retry_ratio", unit: "frac", better: "lower"},
	{name: "mac.drops_per_run", unit: "count", better: "lower"},
	{name: "forward.tx_per_delivered", unit: "count", better: "lower"},
	{name: "forward.relay_cancel_ratio", unit: "frac", better: "lower"},
	{name: "forward.duplicate_ratio", unit: "frac", better: "lower"},
	{name: "pkt.in_use_end", unit: "count", better: "lower"},
	{name: "gc.cpu_share", unit: "frac", better: "lower"},
	{name: "gc.alloc_bytes_per_event", unit: "B", better: "lower"},
	{name: "gc.allocs_per_run", unit: "count", better: "lower"},
	{name: "gc.cycles", unit: "count", better: "lower"},
	{name: "campaign.pool_busy_frac", unit: "frac", better: "higher"},
	{name: "campaign.assemble_ms", unit: "ms", better: "lower"},
	{name: "network.average_ms", unit: "ms", better: "lower"},
	{name: "dist.cell_busy_ms", unit: "ms", better: "lower"},
	{name: "dist.overhead_ms_per_cell", unit: "ms", better: "lower"},
	{name: "dist.bytes_per_cell", unit: "B", better: "lower"},
	{name: "dist.wal_append_us_p50", unit: "us", better: "lower"},
	{name: "dist.wal_append_us_tail", unit: "us", better: "lower"},
	{name: "dist.ckpt_bytes", unit: "B", better: "lower"},
	{name: "trace.overhead_frac", unit: "frac", better: "lower"},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func findMetric(specs []metricSpec, name string) (metricSpec, bool) {
	for _, m := range specs {
		if m.name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

// specJSON renders the BENCHMARK.json contract. Seeds have no key of their
// own in that file, so each workload's why ends with them.
func specJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range contractWorkloads() {
		doc.Workloads = append(doc.Workloads, wl{w.name,
			fmt.Sprintf("%s; seed %d default, %d held out", w.why, defaultSeed, heldOutSeed)})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.name, m.unit, m.better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(doc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func writeSpec(path string) error {
	b, err := specJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
