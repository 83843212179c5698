package main

// Host cost by module. The traced pass runs under a CPU profile and between
// two heap-profile snapshots; every sample is charged to the innermost
// frame that belongs to one of the stack's layers (genxio/internal/<module>
// for a module in layerModules), to "bench" when the innermost such frame is
// the benchmark's own code (its tracing wrappers), and to "runtime" when the
// stack has neither (garbage collection, scheduler, idle goroutines).
// Internal helper packages that are not layers (stats, metrics, trace, ...)
// are charged to the layer that called them.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
)

// layerModules are the stack's modules, in reporting order.
var layerModules = []string{
	"sim", "cluster", "fssim", "mpi", "rt", "roccom", "rocpanda", "iosched",
	"hdf", "catalog", "snapshot", "delta", "physics", "mesh", "rocman",
}

// hostBuckets are the modules plus the two catch-alls.
var hostBuckets = append(append([]string(nil), layerModules...), "bench", "runtime")

// bucketOf classifies one frame's function name; ok is false when the
// frame does not decide the bucket and the walk should move outward.
func bucketOf(fn string) (string, bool) {
	if rest, found := strings.CutPrefix(fn, "genxio/internal/"); found {
		mod := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			mod = rest[:i]
		}
		return mod, slices.Contains(layerModules, mod)
	}
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "genxio/benchmark.") {
		return "bench", true
	}
	return "", false
}

// chargeFrames returns the bucket of a stack given innermost-first.
func chargeFrames(funcs []string) string {
	for _, fn := range funcs {
		if b, ok := bucketOf(fn); ok {
			return b
		}
	}
	return "runtime"
}

// hostProfile is one profiled pass's host cost by bucket.
type hostProfile struct {
	cpuSeconds map[string]float64
	allocBytes map[string]float64
	cpuTotal   float64 // every CPU sample, charged or not
	allocTotal float64 // every sampled allocation, scaled
}

// profiler brackets a pass with a CPU profile and heap snapshots.
type profiler struct {
	cpu  bytes.Buffer
	heap map[[32]uintptr]runtime.MemProfileRecord
}

func startProfiler() (*profiler, error) {
	p := &profiler{}
	p.heap = heapRecords()
	if err := pprof.StartCPUProfile(&p.cpu); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	return p, nil
}

func (p *profiler) stop() (*hostProfile, error) {
	pprof.StopCPUProfile()
	after := heapRecords()
	hp := &hostProfile{cpuSeconds: make(map[string]float64), allocBytes: make(map[string]float64)}
	if err := chargeCPU(p.cpu.Bytes(), hp); err != nil {
		return nil, err
	}
	rate := float64(runtime.MemProfileRate)
	for key, rec := range after {
		prev := p.heap[key]
		objs, size := rec.AllocObjects-prev.AllocObjects, rec.AllocBytes-prev.AllocBytes
		if objs <= 0 || size <= 0 {
			continue
		}
		scaled := scaleHeapSample(objs, size, rate)
		var funcs []string
		frames := runtime.CallersFrames(rec.Stack())
		for {
			f, more := frames.Next()
			funcs = append(funcs, f.Function)
			if !more {
				break
			}
		}
		hp.allocBytes[chargeFrames(funcs)] += scaled
		hp.allocTotal += scaled
	}
	return hp, nil
}

// heapRecords returns the cumulative heap profile, flushed by two
// collections so it includes every allocation made so far.
func heapRecords() map[[32]uintptr]runtime.MemProfileRecord {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		n, ok = runtime.MemProfile(recs, true)
		if ok {
			break
		}
	}
	out := make(map[[32]uintptr]runtime.MemProfileRecord, n)
	for _, r := range recs[:n] {
		prev := out[r.Stack0]
		prev.Stack0 = r.Stack0
		prev.AllocBytes += r.AllocBytes
		prev.AllocObjects += r.AllocObjects
		out[r.Stack0] = prev
	}
	return out
}

// scaleHeapSample undoes the heap profiler's sampling the way pprof does:
// an allocation of average size s is sampled with probability
// 1-exp(-s/rate).
func scaleHeapSample(objs, size int64, rate float64) float64 {
	if rate <= 1 {
		return float64(size)
	}
	avg := float64(size) / float64(objs)
	return float64(size) / (1 - math.Exp(-avg/rate))
}

// chargeCPU decodes a gzipped pprof CPU profile and charges each sample's
// CPU nanoseconds to its bucket.
func chargeCPU(gz []byte, hp *hostProfile) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("CPU profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return fmt.Errorf("CPU profile: %w", err)
	}
	funcName := make(map[uint64]string, len(prof.funcs))
	for id, nameIdx := range prof.funcs {
		if nameIdx < uint64(len(prof.strings)) {
			funcName[id] = prof.strings[nameIdx]
		}
	}
	for _, s := range prof.samples {
		if len(s.values) < 2 {
			continue
		}
		var funcs []string
		for _, loc := range s.locs {
			for _, fid := range prof.locLines[loc] {
				funcs = append(funcs, funcName[fid])
			}
		}
		sec := float64(s.values[1]) / 1e9
		hp.cpuSeconds[chargeFrames(funcs)] += sec
		hp.cpuTotal += sec
	}
	return nil
}

// The subset of the pprof profile.proto schema the charging needs.
type pprofSample struct {
	locs   []uint64
	values []int64
}

type pprofProfile struct {
	samples  []pprofSample
	locLines map[uint64][]uint64 // location id → function ids, innermost first
	funcs    map[uint64]uint64   // function id → name string index
	strings  []string
}

func decodeProfile(b []byte) (*pprofProfile, error) {
	p := &pprofProfile{locLines: make(map[uint64][]uint64), funcs: make(map[uint64]uint64)}
	err := eachField(b, func(field int, v uint64, data []byte) error {
		switch field {
		case 2: // sample
			var s pprofSample
			err := eachField(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, d)
				case 2:
					for _, u := range appendPacked(nil, v, d) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fids []uint64
			err := eachField(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(d, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fids = append(fids, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = fids
			return err
		case 5: // function
			var id, name uint64
			err := eachField(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6: // string table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

// appendPacked appends a repeated varint field's values, whether it was
// encoded packed (data set) or as a single value.
func appendPacked(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		u, n := binary.Uvarint(data)
		if n <= 0 {
			return dst
		}
		dst = append(dst, u)
		data = data[n:]
	}
	return dst
}

var errProto = errors.New("malformed protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or (length-delimited) its bytes.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
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
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
			if data == nil {
				data = []byte{}
			}
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}
