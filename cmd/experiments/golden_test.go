package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ripple/internal/experiments"
	"ripple/internal/sim"
)

var update = flag.Bool("update", false, "regenerate the committed goldens in testdata/")

// TestGoldens pins every figure, table and ablation to committed output:
// the goldens are byte for byte what
//
//	experiments -seeds 1 -dur 0.5 -ablations -json [-prunesigma 0]
//
// prints, once at each experiment's default neighbor pruning and once
// with the exact (unpruned) medium. A refactor that claims identical
// results must leave both untouched. When a change is meant to move the
// numbers, regenerate with
//
//	go test ./cmd/experiments -run TestGoldens -update
//
// and say in CHANGES.md which outputs moved and why.
func TestGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite: ~15 s")
	}
	zero := 0.0
	for _, tc := range []struct {
		file  string
		prune *float64
	}{
		{"golden.json", nil},
		{"golden_prunesigma0.json", &zero},
	} {
		t.Run(tc.file, func(t *testing.T) {
			opt := experiments.Options{
				Seeds:      []uint64{1},
				Duration:   sim.Time(0.5 * float64(sim.Second)),
				PruneSigma: tc.prune,
			}
			var out []jsonTable
			for _, r := range append(experiments.All(), experiments.Ablations()...) {
				tables, err := r.Run(opt)
				if err != nil {
					t.Fatalf("%s: %v", r.Name, err)
				}
				out = append(out, jsonTable{Experiment: r.Name, Tables: tables})
			}
			var got bytes.Buffer
			if err := writeJSON(&got, out); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.file)
			if *update {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("output differs from %s (-update regenerates it):\n%s", path, firstDiff(want, got.Bytes()))
			}
		})
	}
}

// firstDiff renders the first differing line of two outputs with a few
// lines of leading context, so a golden failure points at the cell.
func firstDiff(want, got []byte) string {
	wl := strings.Split(string(want), "\n")
	gl := strings.Split(string(got), "\n")
	i := 0
	for i < len(wl) && i < len(gl) && wl[i] == gl[i] {
		i++
	}
	var b strings.Builder
	fmt.Fprintf(&b, "first difference at line %d:\n", i+1)
	for j := max(0, i-6); j < i; j++ {
		b.WriteString("  " + wl[j] + "\n")
	}
	if i < len(wl) {
		b.WriteString("- " + wl[i] + "\n")
	}
	if i < len(gl) {
		b.WriteString("+ " + gl[i] + "\n")
	}
	return b.String()
}
