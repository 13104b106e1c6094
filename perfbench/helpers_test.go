package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 50, true},  // rank 10, 10 beyond
		{40, 75, true},  // rank 30, 10 beyond
		{99, 75, true},  // p90 rank 90 leaves 9
		{100, 90, true}, // rank 90, 10 beyond
		{199, 90, true}, // p95 rank 190 leaves 9
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && c.n-rank(p, c.n) < 10 {
			t.Errorf("n=%d: p%v leaves %d beyond", c.n, p, c.n-rank(p, c.n))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for p, want := range map[float64]float64{50: 5, 90: 9, 99: 10, 10: 1, 0: 1} {
		if got := percentile(s, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if s[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	ms := func(a, b int64) span { return span{Start: a * 1e6, End: b * 1e6} }
	parent := ms(0, 100)
	cases := []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100 * time.Millisecond},
		{"disjoint", []span{ms(10, 20), ms(30, 50)}, 70 * time.Millisecond},
		{"overlapping count once", []span{ms(10, 40), ms(30, 60)}, 50 * time.Millisecond},
		{"nested", []span{ms(10, 60), ms(20, 30)}, 50 * time.Millisecond},
		{"clipped to parent", []span{ms(-20, 10), ms(90, 150)}, 80 * time.Millisecond},
		{"outside parent", []span{ms(120, 150)}, 100 * time.Millisecond},
		{"fully covered", []span{ms(0, 100)}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestTracerSpansAndSelfTotals(t *testing.T) {
	tr := newTracer()
	p := tr.begin("worker", 0, 0)
	c := tr.begin("cell", p, tr.newRun())
	time.Sleep(2 * time.Millisecond)
	tr.end(c)
	tr.end(p)
	if n := len(tr.named("cell")); n != 1 {
		t.Fatalf("named(cell) = %d spans", n)
	}
	self := tr.totalSelf("worker")
	if total := tr.named("worker")[0].dur(); self < 0 || self >= total-time.Millisecond {
		t.Errorf("worker self %v of %v does not exclude the 2ms child", self, total)
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", 0, nilTracer.newRun()); id != 0 {
		t.Errorf("nil tracer begin = %d", id)
	}
	nilTracer.end(0)
}

// protobuf encoding helpers for a synthetic profile.
func pbVarint(b []byte, num int, v uint64) []byte {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func pbBytes(b []byte, num int, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func pbPacked(b []byte, num int, vs ...uint64) []byte {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	return pbBytes(b, num, p)
}

// syntheticProfile encodes a gzipped profile with the given function
// names; each stack lists location ids leaf first, and location i+1
// calls function i+1 (inline lists give several functions per location).
func syntheticProfile(t *testing.T, funcs []string, locs [][]uint64, stacks [][]uint64, weights []uint64) []byte {
	var msg []byte
	strs := append([]string{""}, funcs...)
	for i, st := range stacks {
		var s []byte
		if len(st) > 2 {
			s = pbPacked(s, 1, st...)
		} else {
			for _, l := range st {
				s = pbVarint(s, 1, l)
			}
		}
		s = pbPacked(s, 2, 1, weights[i])
		msg = pbBytes(msg, 2, s)
	}
	for i, fns := range locs {
		var l []byte
		l = pbVarint(l, 1, uint64(i+1))
		for _, f := range fns {
			l = pbBytes(l, 4, pbVarint(nil, 1, f))
		}
		msg = pbBytes(msg, 4, l)
	}
	for i := range funcs {
		var f []byte
		f = pbVarint(f, 1, uint64(i+1))
		f = pbVarint(f, 2, uint64(i+1))
		msg = pbBytes(msg, 5, f)
	}
	for _, s := range strs {
		msg = pbBytes(msg, 6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestProfileBucketsByInnermostSimulatorFrame(t *testing.T) {
	funcs := []string{
		"math.Pow",                                 // 1
		"ripple/internal/radio.dbmToMW",            // 2
		"ripple/internal/sim.(*Engine).Run",        // 3
		"runtime.gcBgMarkWorker",                   // 4
		"runtime.wbBufFlush",                       // 5
		"ripple/internal/transport.(*TCP).onAck",   // 6
		"ripple/internal/campaign/pool.(*Pool).Do", // 7
		"main.main",                                // 8
	}
	// Location 9 holds an inlined pair: radio.dbmToMW inlined into
	// sim.(*Engine).Run, innermost first.
	locs := [][]uint64{{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}, {2, 3}}
	stacks := [][]uint64{
		{1, 2, 3, 8}, // math called from radio: radio
		{5, 6, 3},    // write barrier under transport: transport
		{4},          // background GC: other
		{3, 7, 8},    // sim under the pool: sim
		{1, 9, 8},    // math under an inlined radio frame: radio
		{8},          // benchmark's own code: other
	}
	weights := []uint64{30, 20, 10, 25, 5, 10}
	samples, err := decodeProfile(syntheticProfile(t, funcs, locs, stacks, weights))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(stacks) {
		t.Fatalf("decoded %d samples, want %d", len(samples), len(stacks))
	}
	if got := strings.Join(samples[4].stack, " "); got != "math.Pow ripple/internal/radio.dbmToMW ripple/internal/sim.(*Engine).Run main.main" {
		t.Errorf("inlined stack = %q", got)
	}
	shares := layerShares(samples)
	want := map[string]float64{"radio": 0.35, "transport": 0.2, "sim": 0.25, "other": 0.2}
	for l, w := range want {
		if math.Abs(shares[l]-w) > 1e-12 {
			t.Errorf("share[%s] = %v, want %v", l, shares[l], w)
		}
	}
	if len(shares) != len(want) {
		t.Errorf("shares = %v, want only %v", shares, want)
	}
	if got := layerOf("ripple/internal/campaign/pool.(*Pool).Do"); got != "campaign" {
		t.Errorf("layerOf(pool) = %q", got)
	}
}

func TestBoundsCheck(t *testing.T) {
	specs := []metricSpec{
		{"latency", "ms", "lower", 0.1},
		{"rate", "1/s", "higher", 0.1},
	}
	base := map[string][]float64{"latency": {10, 11, 9}, "rate": {100, 100, 100}}
	ok := map[string][]float64{"latency": {10.9, 10.9, 11}, "rate": {91, 95, 99}}
	if bad := boundsCheck(specs, base, ok); len(bad) != 0 {
		t.Errorf("within bounds, got %v", bad)
	}
	worse := map[string][]float64{"latency": {11.2, 11.1, 12}, "rate": {89, 85, 88}}
	bad := boundsCheck(specs, base, worse)
	if len(bad) != 2 || !strings.HasPrefix(bad[0], "latency") || !strings.HasPrefix(bad[1], "rate") {
		t.Errorf("out of bounds, got %v", bad)
	}
	better := map[string][]float64{"latency": {5}, "rate": {200}}
	if bad := boundsCheck(specs, base, better); len(bad) != 0 {
		t.Errorf("improvements flagged: %v", bad)
	}
	if bad := boundsCheck(specs, base, map[string][]float64{"rate": {100}}); len(bad) != 1 {
		t.Errorf("missing metric not flagged: %v", bad)
	}
}

// TestSpecMeetsContract checks BENCHMARK.json's limits on names, units,
// bounds and sizes, and that setup_s carries the largest bound.
func TestSpecMeetsContract(t *testing.T) {
	b, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc) != 6 || len(b) > 64<<10 {
		t.Errorf("spec has %d keys, %d bytes", len(doc), len(b))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	if n := len(contractWorkloads()); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		check(w.name)
	}
	var setupBound, maxBound float64
	for _, m := range endToEnd {
		check(m.name)
		if !unit.MatchString(m.unit) || m.bound <= 0 || m.bound > 0.25 || (m.better != "lower" && m.better != "higher") {
			t.Errorf("bad end-to-end metric %+v", m)
		}
		if m.name == "setup_s" {
			setupBound = m.bound
		}
		maxBound = max(maxBound, m.bound)
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %v, largest bound %v", setupBound, maxBound)
	}
	for _, m := range perLayer {
		check(m.name)
		if !unit.MatchString(m.unit) {
			t.Errorf("bad unit %q", m.unit)
		}
	}
	var ws []struct{ Why string }
	if err := json.Unmarshal(doc["workloads"], &ws); err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why too long (%d): %q", len(w.Why), w.Why)
		}
	}
}

func TestDeriveSeedsSeparatesPurposes(t *testing.T) {
	a := deriveSeeds(1, "city-mobile/layout", 3)
	b := deriveSeeds(1, "city-mobile/mobility", 3)
	c := deriveSeeds(2, "city-mobile/layout", 3)
	if a[0] == b[0] || a[0] == c[0] || a[0] == a[1] {
		t.Errorf("seeds collide: %v %v %v", a, b, c)
	}
	if d := deriveSeeds(1, "city-mobile/layout", 3); d[2] != a[2] {
		t.Error("derivation is not deterministic")
	}
	for _, s := range append(a, b...) {
		if s == 0 {
			t.Error("zero seed")
		}
	}
}
