package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile the traced pass takes of itself is decoded here with the
// standard library alone: runtime/pprof writes a gzipped protocol buffer
// (github.com/google/pprof/proto/profile.proto), and only four of its
// messages matter for charging samples to layers.

// profSample is one decoded sample: its stack as function names, leaf
// first (inlined frames in call order, innermost first), and its weight.
type profSample struct {
	stack  []string
	weight int64
}

// protobuf wire helpers.

func readVarint(b []byte) (uint64, int, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, 0, errors.New("profile: bad varint")
	}
	return v, n, nil
}

// fields calls fn for each field of a message: its number, wire type,
// varint value (wire type 0) or payload (wire type 2).
func fields(b []byte, fn func(num int, wt int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n, err := readVarint(b)
		if err != nil {
			return err
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wt {
		case 0:
			v, n, err = readVarint(b)
			if err != nil {
				return err
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n, err := readVarint(b)
			if err != nil {
				return err
			}
			b = b[n:]
			if uint64(len(b)) < l {
				return errors.New("profile: short field")
			}
			payload, b = b[:l], b[l:]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wt)
		}
		if err := fn(num, wt, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// varints appends a repeated varint field, packed (wire type 2) or not.
func varints(dst []uint64, wt int, v uint64, payload []byte) ([]uint64, error) {
	if wt == 0 {
		return append(dst, v), nil
	}
	for len(payload) > 0 {
		x, n, err := readVarint(payload)
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
		payload = payload[n:]
	}
	return dst, nil
}

// decodeProfile parses a gzipped pprof profile into samples weighted by
// their last value (CPU nanoseconds for a CPU profile).
func decodeProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct{ locs, vals []uint64 }
	var samples []rawSample
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	funcName := map[uint64]int64{}    // function id -> string index
	var strs []string
	err = fields(raw, func(num, wt int, _ uint64, p []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := fields(p, func(num, wt int, v uint64, p []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = varints(s.locs, wt, v, p)
				case 2:
					s.vals, err = varints(s.vals, wt, v, p)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(p, func(num, _ int, v uint64, p []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(p, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(p, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(p))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{}
		if len(s.vals) > 0 {
			ps.weight = int64(s.vals[len(s.vals)-1])
		}
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				if idx := funcName[fid]; idx >= 0 && idx < int64(len(strs)) {
					ps.stack = append(ps.stack, strs[idx])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// modulePrefix marks the simulator's layers in function names.
const modulePrefix = "ripple/internal/"

// layerOf returns the package under ripple/internal of a function name,
// or "" when the function lies outside the simulator: for example
// "ripple/internal/campaign/pool.(*Pool).Do" belongs to "campaign".
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "/."); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// layerShares charges each sample to the innermost simulator frame of its
// stack, so runtime, math, map, sort and write-barrier time counts toward
// the layer that called it. Samples without a simulator frame go to
// "other". The shares are of the total sample weight.
func layerShares(samples []profSample) map[string]float64 {
	weights := map[string]int64{}
	var total int64
	for _, s := range samples {
		layer := "other"
		for _, fn := range s.stack {
			if l := layerOf(fn); l != "" {
				layer = l
				break
			}
		}
		weights[layer] += s.weight
		total += s.weight
	}
	shares := map[string]float64{}
	for l, w := range weights {
		shares[l] = ratio(float64(w), float64(total))
	}
	return shares
}
