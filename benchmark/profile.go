package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// profile is the slice of a pprof profile.proto the layer attribution
// reads: value types, and per sample its values and call stack as function
// names, innermost frame first (inlined frames included).
type profile struct {
	types   []string // "<type>/<unit>", e.g. "cpu/nanoseconds"
	samples []sample
}

type sample struct {
	stack  []string
	values []int64
}

// valueIndex returns the position of the named value type in each sample.
func (p *profile) valueIndex(typ string) (int, error) {
	for i, t := range p.types {
		if t == typ {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile has no %q values (has %v)", typ, p.types)
}

// parseProfile decodes a gzipped profile.proto as runtime/pprof writes it.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	// Strings are referenced by index and written last, so everything is
	// collected as indices first and resolved at the end.
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs      []string
		typeIdx   [][2]uint64
		rawSamps  []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id -> name string index
	)
	err = eachField(raw, func(num int, wt int, v uint64, b []byte) error {
		switch {
		case num == 1 && wt == wireBytes: // sample_type
			var vt [2]uint64
			err := eachField(b, func(num, wt int, v uint64, _ []byte) error {
				if wt == wireVarint && (num == 1 || num == 2) {
					vt[num-1] = v
				}
				return nil
			})
			typeIdx = append(typeIdx, vt)
			return err
		case num == 2 && wt == wireBytes: // sample
			var s rawSample
			err := eachField(b, func(num, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendUints(&s.locs, wt, v, b)
				case 2:
					var vals []uint64
					if err := appendUints(&vals, wt, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			rawSamps = append(rawSamps, s)
			return err
		case num == 4 && wt == wireBytes: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wt int, v uint64, b []byte) error {
				switch {
				case num == 1 && wt == wireVarint:
					id = v
				case num == 4 && wt == wireBytes: // line
					return eachField(b, func(num, wt int, v uint64, _ []byte) error {
						if num == 1 && wt == wireVarint {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case num == 5 && wt == wireBytes: // function
			var id, name uint64
			err := eachField(b, func(num, wt int, v uint64, _ []byte) error {
				if wt == wireVarint {
					switch num {
					case 1:
						id = v
					case 2:
						name = v
					}
				}
				return nil
			})
			funcNames[id] = name
			return err
		case num == 6 && wt == wireBytes: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d out of range", i)
		}
		return strs[i], nil
	}
	p := &profile{}
	for _, vt := range typeIdx {
		typ, err := str(vt[0])
		if err != nil {
			return nil, err
		}
		unit, err := str(vt[1])
		if err != nil {
			return nil, err
		}
		p.types = append(p.types, typ+"/"+unit)
	}
	for _, rs := range rawSamps {
		s := sample{values: rs.values}
		for _, loc := range rs.locs {
			for _, fn := range locFuncs[loc] {
				name, err := str(funcNames[fn])
				if err != nil {
					return nil, err
				}
				s.stack = append(s.stack, name)
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// Protobuf wire types used by profile.proto.
const (
	wireVarint = 0
	wireI64    = 1
	wireBytes  = 2
	wireI32    = 5
)

var errTruncated = errors.New("truncated protobuf")

func varint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errTruncated
}

// eachField walks a protobuf message, calling fn with each field's number
// and wire type, and its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num, wt int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n, err := varint(b)
		if err != nil {
			return err
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wt {
		case wireVarint:
			if v, n, err = varint(b); err != nil {
				return err
			}
		case wireI64:
			n = 8
		case wireI32:
			n = 4
		case wireBytes:
			var l uint64
			if l, n, err = varint(b); err != nil {
				return err
			}
			if l > uint64(len(b)-n) {
				return errTruncated
			}
			data = b[n : n+int(l)]
			n += int(l)
		default:
			return fmt.Errorf("unsupported wire type %d", wt)
		}
		if n > len(b) {
			return errTruncated
		}
		b = b[n:]
		if err := fn(num, wt, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field, which the encoder writes
// either packed (one length-delimited run) or as one varint per value.
func appendUints(dst *[]uint64, wt int, v uint64, b []byte) error {
	if wt == wireVarint {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n, err := varint(b)
		if err != nil {
			return err
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// repoPrefix marks the frames that belong to a layer.
const repoPrefix = "repro/internal/"

// layers maps every package under internal/ to the layer its samples are
// charged to. Small helper packages fold into the layer that calls them;
// a package missing here fails the layer-coverage test rather than
// silently landing in "other".
var layers = map[string]string{
	"sim":           "sim",
	"mac":           "mac",
	"obs":           "obs",
	"trace":         "obs",
	"diffusion":     "diffusion",
	"opportunistic": "diffusion",
	"agg":           "diffusion",
	"idealized":     "diffusion",
	"datacentric":   "diffusion",
	"setcover":      "setcover",
	"topology":      "topology",
	"geom":          "topology",
	"chaos":         "chaos",
	"failure":       "chaos",
	"metrics":       "metrics",
	"stats":         "metrics",
	"energy":        "energy",
	"msg":           "msg",
	"core":          "core",
	"workload":      "core",
	"snap":          "core",
	"harness":       "harness",
	"plot":          "harness",
	"bench":         "harness",
}

// sublayers are the hot spots reported inside a layer: a sample counts
// toward one when a frame of the layer's own call chain (the innermost
// repository frame and its same-package callers) names one of the methods.
var sublayers = []struct {
	name, pkg string
	methods   []string
}{
	{"sim.heap", "sim", []string{".siftUp", ".siftDown", ".evLess", ".popHead", ".compact", ".maybeCompact"}},
	{"mac.rxset", "mac", []string{".rxSet.", "rxSet)."}},
	{"diffusion.tables", "diffusion", []string{"gradTable).", "entryTable).", "interestTable).", "timeTable)."}},
	{"topology.mobility", "topology", []string{"Mover).", ".MoveNode"}},
}

// pkgOf returns the internal package of a function name such as
// "repro/internal/mac.(*rxSet).find", or "" for a frame outside it.
func pkgOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

// refFrame is the host-speed reference, which runs inside the harness's
// OnRun callback but is the benchmark's yardstick, not part of a layer.
const refFrame = "main.reference"

// attribute sums one value type of a profile per layer. A sample goes to
// the layer of its innermost repository frame; a sample with no repository
// frame goes to "gc" when the background mark worker is on its stack and
// to "other" otherwise. Samples in the host-speed reference are left out.
// Sub-layer sums are reported beside, not instead of, their layer's, and
// "total" sums every sample counted.
func attribute(p *profile, typ string) (map[string]float64, error) {
	vi, err := p.valueIndex(typ)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range p.samples {
		if slices.Contains(s.stack, refFrame) {
			continue
		}
		v := float64(s.values[vi])
		layer, chain := classify(s.stack)
		out[layer] += v
		out["total"] += v
		for _, sl := range sublayers {
			if layer == layers[sl.pkg] && matchesAny(chain, sl.pkg, sl.methods) {
				out[sl.name] += v
			}
		}
	}
	return out, nil
}

// classify returns a stack's layer and, for a repository layer, the
// innermost repository frame followed by its same-package callers.
func classify(stack []string) (string, []string) {
	for i, fn := range stack {
		pkg := pkgOf(fn)
		if pkg == "" {
			continue
		}
		j := i + 1
		for j < len(stack) && pkgOf(stack[j]) == pkg {
			j++
		}
		layer, ok := layers[pkg]
		if !ok {
			layer = "other"
		}
		return layer, stack[i:j]
	}
	for _, fn := range stack {
		if fn == "runtime.gcBgMarkWorker" {
			return "gc", nil
		}
	}
	return "other", nil
}

func matchesAny(chain []string, pkg string, methods []string) bool {
	for _, fn := range chain {
		if pkgOf(fn) != pkg {
			continue
		}
		for _, m := range methods {
			if strings.Contains(fn, m) {
				return true
			}
		}
	}
	return false
}
