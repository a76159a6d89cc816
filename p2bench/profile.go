package main

// CPU-profile bucketing: each sample's cost goes to the innermost
// frame that belongs to a p2/internal/<pkg> package, so runtime work
// (allocation, map access) is charged to the layer that asked for it.
// The profile is the gzipped protobuf runtime/pprof writes; the
// standard library has no public reader, so the few fields needed are
// decoded here.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuProfile collects one window's CPU profile.
type cpuProfile struct{ buf bytes.Buffer }

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// profileShares is the bucketed profile: the share of samples charged
// to each p2/internal package, and the share with runtime.mallocgc on
// the stack.
type profileShares struct {
	Samples int64
	Pkg     map[string]float64
	Malloc  float64
}

// stop ends the profile and buckets it.
func (p *cpuProfile) stop() (profileShares, error) {
	pprof.StopCPUProfile()
	return bucketProfile(p.buf.Bytes())
}

const internalPrefix = "p2/internal/"

// layerOf maps a function name to its p2/internal package ("" if the
// function lies outside p2/internal).
func layerOf(fn string) string {
	if !strings.HasPrefix(fn, internalPrefix) {
		return ""
	}
	rest := fn[len(internalPrefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

func bucketProfile(gz []byte) (profileShares, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return profileShares{}, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return profileShares{}, fmt.Errorf("cpu profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return profileShares{}, fmt.Errorf("cpu profile: %w", err)
	}
	// Resolve each location to its function names, innermost first.
	funcName := make(map[uint64]string, len(prof.funcs))
	for id, nameIdx := range prof.funcs {
		if nameIdx >= 0 && int(nameIdx) < len(prof.strings) {
			funcName[id] = prof.strings[nameIdx]
		}
	}
	locNames := make(map[uint64][]string, len(prof.locs))
	for id, fids := range prof.locs {
		names := make([]string, len(fids))
		for i, f := range fids {
			names[i] = funcName[f]
		}
		locNames[id] = names
	}
	out := profileShares{Pkg: make(map[string]float64)}
	var malloc int64
	for _, s := range prof.samples {
		layer, hasMalloc := "", false
		for _, loc := range s.locs {
			for _, fn := range locNames[loc] {
				if layer == "" {
					layer = layerOf(fn)
				}
				if fn == "runtime.mallocgc" {
					hasMalloc = true
				}
			}
		}
		out.Samples += s.count
		if layer != "" {
			out.Pkg[layer] += float64(s.count)
		}
		if hasMalloc {
			malloc += s.count
		}
	}
	for k, v := range out.Pkg {
		out.Pkg[k] = v / float64(out.Samples)
	}
	out.Malloc = ratio(float64(malloc), float64(out.Samples))
	return out, nil
}

// rawProfile is the subset of profile.proto the bucketing needs.
type rawProfile struct {
	samples []rawSample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]int64    // function id -> name string index
	strings []string
}

type rawSample struct {
	locs  []uint64 // leaf first
	count int64    // value[0]: the sample count
}

var errProto = errors.New("malformed profile protobuf")

// protoFields walks the fields of one protobuf message, calling fn with
// the field number, wire type, varint value (wire type 0) and payload
// (wire type 2).
func protoFields(b []byte, fn func(field int, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(field, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// varints decodes a repeated integer field in either packed (wire type
// 2) or unpacked (wire type 0) form.
func varints(wire int, v uint64, payload []byte, dst []uint64) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(payload) > 0 {
		x, n := binary.Uvarint(payload)
		if n <= 0 {
			return dst, errProto
		}
		dst = append(dst, x)
		payload = payload[n:]
	}
	return dst, nil
}

func decodeProfile(b []byte) (*rawProfile, error) {
	p := &rawProfile{locs: make(map[uint64][]uint64), funcs: make(map[uint64]int64)}
	err := protoFields(b, func(field, wire int, v uint64, payload []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			var values []uint64
			err := protoFields(payload, func(f, w int, v uint64, pl []byte) error {
				var err error
				switch f {
				case 1:
					s.locs, err = varints(w, v, pl, s.locs)
				case 2:
					values, err = varints(w, v, pl, values)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var fids []uint64
			err := protoFields(payload, func(f, w int, v uint64, pl []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return protoFields(pl, func(lf, lw int, lv uint64, _ []byte) error {
						if lf == 1 {
							fids = append(fids, lv)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locs[id] = fids
		case 5: // Function
			var id uint64
			name := int64(-1)
			err := protoFields(payload, func(f, w int, v uint64, pl []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcs[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(payload))
		}
		return nil
	})
	return p, err
}
