package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
)

// cpuModules are the buckets of the cpu_share.* metrics: the simulator's
// modules, the partition barrier, the garbage collector, and the rest.
var cpuModules = []string{
	"noc", "noc.barrier", "mem", "chi", "traffic", "coherence", "serving",
	"stats", "sim", "server", "artifact", "durable", "baseline", "runtime.gc", "other",
}

// A CPU profile is a gzipped protocol-buffer message (pprof's
// profile.proto). The reader below decodes only what the buckets need:
// samples (stack of location ids plus values), locations (their lines'
// function ids), functions (name index) and the string table.

type pbuf struct{ b []byte }

var errProto = errors.New("malformed profile")

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errProto
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// field reads one field: its number, and either a varint value or a
// length-delimited payload (fixed-width fields are skipped; profile.proto
// uses none in the messages read here).
func (p *pbuf) field() (num int, val uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	num = int(key >> 3)
	switch key & 7 {
	case 0:
		val, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, nil, errProto
		}
		p.b = p.b[8:]
	case 2:
		var n uint64
		if n, err = p.varint(); err != nil {
			return
		}
		if uint64(len(p.b)) < n {
			return 0, 0, nil, errProto
		}
		data, p.b = p.b[:n], p.b[n:]
	case 5:
		if len(p.b) < 4 {
			return 0, 0, nil, errProto
		}
		p.b = p.b[4:]
	default:
		err = errProto
	}
	return
}

// repeated appends a repeated integer field that may arrive packed
// (data) or one value at a time (val).
func repeated(dst []uint64, val uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, val), nil
	}
	p := pbuf{data}
	for len(p.b) > 0 {
		v, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

type profSample struct {
	locs   []uint64
	values []uint64
}

// parseProfile returns each sample's stack as function names, leaf
// first, with the sample's last value (CPU nanoseconds in a CPU
// profile).
func parseProfile(gz []byte) (stacks [][]string, weights []uint64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, err
	}
	var samples []profSample
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	funcName := map[uint64]uint64{}   // function id -> string index
	var strs []string
	top := pbuf{raw}
	for len(top.b) > 0 {
		num, _, data, err := top.field()
		if err != nil {
			return nil, nil, err
		}
		m := pbuf{data}
		switch num {
		case 2: // Sample
			var s profSample
			for len(m.b) > 0 {
				n, v, d, err := m.field()
				if err != nil {
					return nil, nil, err
				}
				switch n {
				case 1:
					if s.locs, err = repeated(s.locs, v, d); err != nil {
						return nil, nil, err
					}
				case 2:
					if s.values, err = repeated(s.values, v, d); err != nil {
						return nil, nil, err
					}
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			for len(m.b) > 0 {
				n, v, d, err := m.field()
				if err != nil {
					return nil, nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // Line
					l := pbuf{d}
					for len(l.b) > 0 {
						ln, lv, _, err := l.field()
						if err != nil {
							return nil, nil, err
						}
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			for len(m.b) > 0 {
				n, v, _, err := m.field()
				if err != nil {
					return nil, nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					stack = append(stack, strs[idx])
				}
			}
		}
		stacks = append(stacks, stack)
		weights = append(weights, s.values[len(s.values)-1])
	}
	return stacks, weights, nil
}

const internalPrefix = "chipletnoc/internal/"

// bucketOf names the module a stack's time is charged to. Time under
// the partition barrier's Wait (spinning, yielding or parked) is barrier
// time whatever the leaf is; time under the collector's workers and
// assists is GC time; otherwise the leaf-most frame inside one of the
// simulator's modules takes the sample, so runtime helpers it called
// (memmove, map access, allocation) are charged to the module that
// called them.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, internalPrefix+"sim.(*SpinBarrier).") {
			return "noc.barrier"
		}
	}
	for _, fn := range stack {
		if !strings.HasPrefix(fn, "runtime.") {
			continue
		}
		name := strings.TrimPrefix(fn, "runtime.")
		for _, gc := range []string{"gcBgMarkWorker", "gcAssistAlloc", "gcDrain", "gcMark", "gcStart", "gcSweep", "bgsweep", "bgscavenge", "scanobject", "scanblock", "markroot", "sweepone", "(*gcWork)", "(*sweepLocked)", "greyobject"} {
			if strings.HasPrefix(name, gc) {
				return "runtime.gc"
			}
		}
	}
	for _, fn := range stack {
		if !strings.HasPrefix(fn, internalPrefix) {
			continue
		}
		pkg := strings.TrimPrefix(fn, internalPrefix)
		if i := strings.IndexByte(pkg, '.'); i >= 0 {
			pkg = pkg[:i]
		}
		for _, m := range cpuModules {
			if m == pkg {
				return m
			}
		}
	}
	return "other"
}

// cpuShares buckets a CPU profile and returns each bucket's share of
// the sampled CPU time in percent; all zero when the profiled section
// was too short to be sampled (the smoke size).
func cpuShares(gz []byte) (map[string]float64, error) {
	stacks, weights, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	var total float64
	sums := map[string]float64{}
	for i, st := range stacks {
		w := float64(weights[i])
		sums[bucketOf(st)] += w
		total += w
	}
	out := map[string]float64{}
	for _, m := range cpuModules {
		if total > 0 {
			out[m] = 100 * sums[m] / total
		}
	}
	return out, nil
}
