package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile is attributed to layers without the pprof tool: this
// decodes just the parts of runtime/pprof's protobuf output it needs
// (samples, locations with their inlined lines, functions, strings).

// profileSample is one CPU profile sample: its stack's function names,
// innermost first (inlined frames included), and its count.
type profileSample struct {
	funcs []string
	count int64
}

// Field numbers of profile.proto.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6
	fSampleLocation  = 1
	fSampleValue     = 2
	fLocationID      = 1
	fLocationLine    = 4
	fLineFunction    = 1
	fFunctionID      = 1
	fFunctionName    = 2
)

// parseProfile decodes a gzipped CPU profile.
func parseProfile(gz []byte) ([]profileSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location → function ids, innermost first
		funcNames = map[uint64]int64{}    // function → string index
		strs      []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case fProfileSample:
			var s rawSample
			var vals []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case fSampleLocation:
					s.locs = appendVarints(s.locs, wire, v, b)
				case fSampleValue:
					vals = appendVarints(vals, wire, v, b)
				}
				return nil
			})
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(b, func(num, wire int, v uint64, b []byte) error {
						if num == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case fProfileStrings:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profileSample, 0, len(samples))
	for _, s := range samples {
		ps := profileSample{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx >= 0 && int(idx) < len(strs) {
					ps.funcs = append(ps.funcs, strs[idx])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// appendVarints collects a repeated integer field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("malformed profile protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
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
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return fmt.Errorf("%w: wire type %d", errProto, wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// layerOf names the layer a sample's CPU goes to: the package of its
// innermost frame inside module repro ("bench" for the benchmark itself),
// else "net" when the stack touches networking, else "runtime".
func layerOf(funcs []string) string {
	for _, f := range funcs {
		if rest, ok := strings.CutPrefix(f, "repro/"); ok {
			pkg, _, _ := strings.Cut(rest, "[") // generic instantiations may hold '/'
			if slash := strings.LastIndexByte(pkg, '/'); slash >= 0 {
				pkg = pkg[slash+1:]
			}
			if dot := strings.IndexByte(pkg, '.'); dot >= 0 {
				pkg = pkg[:dot]
			}
			if pkg == "perfbench" { // this package under go test
				return "bench"
			}
			return pkg
		}
		if strings.HasPrefix(f, "main.") {
			return "bench"
		}
	}
	for _, f := range funcs {
		for _, p := range []string{"net.", "net/", "internal/poll.", "syscall.", "crypto/", "bufio.", "compress/"} {
			if strings.HasPrefix(f, p) {
				return "net"
			}
		}
	}
	return "runtime"
}
