package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// cpuSample is one CPU-profile sample reduced to what the per-module
// attribution needs: the call stack as function names, innermost first
// (inlined calls expanded), the benchmark span that was open, and the CPU
// time the sample stands for.
type cpuSample struct {
	funcs []string
	span  string
	ns    int64
}

// parseCPUProfile decodes a gzipped pprof profile as written by
// runtime/pprof.StartCPUProfile. Only the fields the attribution reads are
// decoded: samples (location ids, values, string labels), locations (line
// entries), functions (names) and the string table.
func parseCPUProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []uint64
		labels [][2]uint64 // (key, str) string indices
	}
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]uint64{}   // function id -> name string index
		strs    []string
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					s.values = appendPacked(s.values, v, b)
				case 3:
					var key, str uint64
					if err := eachField(b, func(f int, v uint64, _ []byte) error {
						switch f {
						case 1:
							key = v
						case 2:
							str = v
						}
						return nil
					}); err != nil {
						return err
					}
					s.labels = append(s.labels, [2]uint64{key, str})
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line: function_id=1
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		cs := cpuSample{ns: int64(s.values[len(s.values)-1])} // cpu/nanoseconds is the last sample type
		for _, id := range s.locs {
			for _, fid := range locs[id] {
				cs.funcs = append(cs.funcs, str(funcs[fid]))
			}
		}
		for _, l := range s.labels {
			if str(l[0]) == spanLabel {
				cs.span = str(l[1])
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// appendPacked appends a repeated scalar field that may arrive packed (one
// length-delimited run of varints) or unpacked (one varint per field).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
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

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with the field number
// and either the varint value (b == nil) or the length-delimited bytes.
// Fixed-width fields are skipped; the profile format uses none of them.
func eachField(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			if b == nil {
				b = []byte{}
			}
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
