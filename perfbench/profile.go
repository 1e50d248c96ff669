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

// layerOf maps a Go package path to the repository layer its CPU time is
// charged to. ok is false for general-purpose standard-library packages
// (bytes, strconv, sort, ...): a sample whose leaf frame is in one of
// them is charged to the nearest caller that is in a layer, so that
// bytes.Index called by strlib counts as strlib.
func layerOf(pkg string) (layer string, ok bool) {
	if rest, found := strings.CutPrefix(pkg, "repro/internal/"); found {
		switch rest {
		case "core/straccel", "core/hashtable", "core/heapmgr", "core/regexaccel":
			return strings.TrimPrefix(rest, "core/"), true
		case "serve", "cache", "workload", "php", "phpval", "vm", "isa",
			"hashmap", "heap", "strlib", "regex", "sim", "trace", "obs", "arena":
			return rest, true
		}
		return "other", true
	}
	switch {
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "internal/poll" ||
		pkg == "syscall" || pkg == "internal/runtime/syscall" || strings.HasPrefix(pkg, "internal/syscall/"):
		return "net", true
	case pkg == "runtime" || pkg == "internal/abi" || strings.HasPrefix(pkg, "runtime/internal/") ||
		(strings.HasPrefix(pkg, "internal/runtime/") && pkg != "internal/runtime/syscall"):
		return "goruntime", true
	}
	switch pkg {
	case "", "bytes", "strings", "strconv", "sort", "slices", "maps", "unicode", "unicode/utf8",
		"internal/bytealg", "math", "math/bits", "math/rand", "sync", "sync/atomic", "internal/sync",
		"errors", "fmt", "io", "bufio", "context", "time", "container/heap", "container/list",
		"encoding/binary", "hash", "hash/fnv", "hash/maphash", "hash/crc32", "iter", "unique", "weak":
		return "", false
	}
	return "other", true
}

// funcPackage extracts the package path from a symbol name such as
// "repro/internal/core/straccel.(*Accel).matchScan" or "runtime.mallocgc".
// Compiler-generated equality and hash functions ("type:.eq.<pkg>.<T>",
// "type:.hash.<pkg>.<T>") belong to the type's package. Assembly helpers with no package in their name
// (aeshashbody, indexbytebody, ...) return "", which layerOf treats like
// a general-purpose package.
func funcPackage(name string) string {
	for _, p := range []string{"type:.eq.", "type:.hash."} {
		name = strings.TrimPrefix(name, p)
	}
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // type arguments may contain paths
	}
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	return name[:slash+1+dot]
}

// profileSplit is a CPU profile reduced to what the report needs.
type profileSplit struct {
	total  float64            // sampled CPU nanoseconds
	layers map[string]float64 // sampled CPU nanoseconds per layer
	client float64            // nanoseconds in the benchmark's own client code
}

// splitProfile decodes a gzipped pprof CPU profile and charges each
// sample to a layer (see layerOf). clientPkg names the benchmark's own
// package: samples whose stack reaches it without passing through a
// repository layer are the load generator's.
func splitProfile(data []byte, clientPkg string) (profileSplit, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return profileSplit{}, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return profileSplit{}, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return profileSplit{}, err
	}
	valueIdx := len(p.sampleTypes) - 1 // CPU profiles end with cpu/nanoseconds
	if valueIdx < 0 {
		return profileSplit{}, errors.New("profile: no sample types")
	}
	out := profileSplit{layers: map[string]float64{}}
	for _, s := range p.samples {
		if valueIdx >= len(s.values) {
			continue
		}
		v := float64(s.values[valueIdx])
		out.total += v
		layer, inRepro, inClient := "other", false, false
		decided := false
		for _, locID := range s.locs {
			for _, fnID := range p.locations[locID] {
				pkg := funcPackage(p.strings[p.functions[fnID]])
				if strings.HasPrefix(pkg, "repro/internal/") {
					inRepro = true
				}
				if pkg == clientPkg && !inRepro {
					inClient = true
				}
				if !decided {
					if l, ok := layerOf(pkg); ok {
						layer, decided = l, true
					}
				}
			}
		}
		out.layers[layer] += v
		if inClient {
			out.client += v
		}
	}
	return out, nil
}

// pprofProfile holds the parts of a profile.proto message the split
// uses: sample stacks (leaf first), each location's functions (innermost
// inlined frame first) and function names.
type pprofProfile struct {
	sampleTypes []int64
	samples     []pprofSample
	locations   map[uint64][]uint64 // location id -> function ids
	functions   map[uint64]int64    // function id -> name string index
	strings     []string
}

type pprofSample struct {
	locs   []uint64
	values []int64
}

// decodeProfile parses the protobuf wire format of profile.proto
// (github.com/google/pprof/proto/profile.proto) for the fields above.
func decodeProfile(b []byte) (*pprofProfile, error) {
	p := &pprofProfile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(field int, v uint64, msg []byte) error {
		switch field {
		case 1: // sample_type
			p.sampleTypes = append(p.sampleTypes, 0)
		case 2: // sample
			var s pprofSample
			err := eachField(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					return appendPacked(&s.locs, v, m)
				case 2:
					var vals []uint64
					if err := appendPacked(&vals, v, m); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(m, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.functions {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, errors.New("profile: function name out of range")
		}
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends one repeated varint field, packed or not.
func appendPacked(dst *[]uint64, v uint64, msg []byte) error {
	if msg == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		msg = msg[n:]
	}
	return nil
}
