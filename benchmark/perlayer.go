package main

// Per-layer metrics of a traced pass, and the layer-sum checks.

import (
	"fmt"
	"math"
	"sort"

	"genxio/internal/metrics"
	"genxio/internal/trace"
)

// phaseNames are the program's phases, plus "other" for a client's time
// outside every phase.
var phaseNames = []string{trace.PhaseCompute, trace.PhaseWrite, trace.PhaseSync, trace.PhaseRead, trace.PhaseDrain, "other"}

// registryMetric is one program registry metric reported as it stands.
type registryMetric struct {
	name, unit string
	kind       byte // 'c' counter (summed over jobs), 'g' gauge (max), 'h' histogram (sum of observations)
}

var registryMetrics = func() []registryMetric {
	ms := []registryMetric{
		{"rocpanda.server.drain_seconds", "s", 'h'},
		{"rocpanda.server.buf_bytes_peak", "bytes", 'g'},
		{"rocpanda.server.overflow_stalls", "count", 'c'},
		{"rocpanda.server.restart_scan_seconds", "s", 'h'},
	}
	for _, class := range []string{"write", "read", "scan"} {
		p := "iosched." + class + "."
		ms = append(ms,
			registryMetric{p + "tasks", "count", 'c'},
			registryMetric{p + "busy_seconds", "s", 'h'},
			registryMetric{p + "overlap_seconds", "s", 'h'},
			registryMetric{p + "queue_depth", "count", 'g'},
			registryMetric{p + "backpressure_waits", "count", 'c'},
			registryMetric{p + "errors", "count", 'c'},
		)
	}
	return append(ms,
		registryMetric{"rocpanda.restart.files_opened", "count", 'c'},
		registryMetric{"rocpanda.restart.bytes_read", "bytes", 'c'},
		registryMetric{"rocpanda.restart.bytes_wasted", "bytes", 'c'},
		registryMetric{"rocpanda.restart.catalog_hits", "count", 'c'},
		registryMetric{"rocpanda.restart.catalog_fallbacks", "count", 'c'},
		registryMetric{"rocpanda.restart.replica_reads", "count", 'c'},
		registryMetric{"rocpanda.restart.chain_depth", "count", 'g'},
		registryMetric{"rocpanda.write.dirty_panes", "count", 'c'},
		registryMetric{"rocpanda.write.clean_panes", "count", 'c'},
		registryMetric{"rocpanda.write.delta_bytes_saved", "bytes", 'c'},
		registryMetric{"hdf.datasets_written", "count", 'c'},
		registryMetric{"hdf.bytes_stored", "bytes", 'c'},
		registryMetric{"hdf.checksum_failures", "count", 'c'},
	)
}()

// ratioMetrics are ratios of registry metrics: name, numerator, and the
// base the numerator is a share of (the denominator is numerator plus
// rest, or base alone when rest is empty).
var ratioMetrics = []struct{ name, num, base, rest string }{
	{"iosched.write.overlap_ratio", "iosched.write.overlap_seconds", "iosched.write.busy_seconds", ""},
	{"iosched.read.overlap_ratio", "iosched.read.overlap_seconds", "iosched.read.busy_seconds", ""},
	{"restart.useful_read_ratio", "rocpanda.restart.bytes_read", "", "rocpanda.restart.bytes_wasted"},
	{"restart.catalog_hit_ratio", "rocpanda.restart.catalog_hits", "", "rocpanda.restart.catalog_fallbacks"},
	{"write.clean_pane_share", "rocpanda.write.clean_panes", "", "rocpanda.write.dirty_panes"},
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// perLayerDefs lists every per-layer metric in reporting order.
func perLayerDefs() []metricDef {
	var defs []metricDef
	for _, op := range []string{"meta", "write", "read"} {
		defs = append(defs,
			metricDef{"fs." + op + ".calls", "count"},
			metricDef{"fs." + op + ".virtual_s", "s"},
			metricDef{"fs." + op + ".host_s", "s"})
	}
	defs = append(defs,
		metricDef{"fs.write.bytes", "bytes"},
		metricDef{"fs.read.bytes", "bytes"},
		metricDef{"fs.read.bytes.sync", "bytes"},
		metricDef{"fs.meta.calls.sync", "count"})
	for _, op := range []string{"send", "recv", "probe", "iprobe", "collective"} {
		defs = append(defs,
			metricDef{"comm." + op + ".calls", "count"},
			metricDef{"comm." + op + ".virtual_s", "s"},
			metricDef{"comm." + op + ".host_s", "s"})
	}
	defs = append(defs, metricDef{"comm.send.bytes", "bytes"})
	for _, ph := range phaseNames {
		defs = append(defs, metricDef{"phase." + ph + ".virtual_s", "s"})
	}
	for _, rm := range registryMetrics {
		defs = append(defs, metricDef{rm.name, rm.unit})
	}
	for _, r := range ratioMetrics {
		defs = append(defs, metricDef{r.name, "ratio"})
	}
	for _, b := range hostBuckets {
		defs = append(defs, metricDef{"host.cpu_s." + b, "s"})
	}
	for _, b := range hostBuckets {
		defs = append(defs, metricDef{"host.alloc_bytes." + b, "bytes"})
	}
	return append(defs,
		metricDef{"wall_s", "s"},
		metricDef{"trace.overhead_ratio", "ratio"},
		metricDef{"failed_ops_ratio", "ratio"},
		metricDef{"write.samples", "count"})
}

// layerMetrics aggregates the spans, phases and registries of a traced
// pass's jobs and runs the layer-sum checks; it returns the metrics and one
// line per failed check.
func layerMetrics(results []jobResult) (map[string]float64, []string) {
	m := make(map[string]float64)
	var problems []string
	for i := range results {
		problems = append(problems, addJobLayers(m, &results[i])...)
	}
	regs := make([]metrics.Snapshot, len(results))
	for i := range results {
		regs[i] = results[i].reg.Snapshot()
	}
	for _, rm := range registryMetrics {
		for _, s := range regs {
			switch rm.kind {
			case 'c':
				m[rm.name] += float64(s.Counters[rm.name])
			case 'g':
				m[rm.name] = math.Max(m[rm.name], s.Gauges[rm.name])
			case 'h':
				m[rm.name] += s.Histograms[rm.name].Sum
			}
		}
	}
	for _, r := range ratioMetrics {
		den := m[r.base]
		if r.rest != "" {
			den = m[r.num] + m[r.rest]
		}
		if den > 0 {
			m[r.name] = m[r.num] / den
		}
	}
	return m, problems
}

// addJobLayers adds one traced job's spans and phases to m.
func addJobLayers(m map[string]float64, r *jobResult) []string {
	var problems []string
	tr := r.tr
	nClients := 0
	for _, ri := range tr.ranks {
		if ri.split && ri.color == 0 {
			nClients = ri.subSize
		}
	}
	row := func(rank int32) int {
		ri := tr.ranks[int(rank)]
		switch {
		case ri == nil || !ri.split:
			return -1
		case ri.color == 0:
			return ri.subRank
		default:
			return nClients + ri.subRank
		}
	}

	phases := make(map[int][]trace.Span)
	for _, s := range r.rec.Spans() { // sorted by row, then start
		phases[s.Rank] = append(phases[s.Rank], s)
		m["phase."+s.Phase+".virtual_s"] += s.T1 - s.T0
	}
	// inPhase[row][i] sums the FS and Comm time of the row's main activity
	// inside its i-th phase.
	inPhase := make(map[int][]float64)
	for _, sp := range tr.spans {
		layer := "fs."
		if sp.layer == layerComm {
			layer = "comm."
		}
		name := layer + opNames[sp.op]
		d := sp.v1 - sp.v0
		m[name+".calls"]++
		m[name+".virtual_s"] += d
		m[name+".host_s"] += float64(sp.h1-sp.h0) / 1e9
		switch {
		case sp.layer == layerFS && (sp.op == opRead || sp.op == opWrite):
			m[name+".bytes"] += float64(sp.bytes)
		case sp.layer == layerComm && sp.op == opSend:
			m[name+".bytes"] += float64(sp.bytes)
		}
		rw := row(sp.rank)
		idx := parentPhase(phases[rw], sp.v0, sp.v1)
		if idx < 0 {
			continue
		}
		if sp.layer == layerFS && phases[rw][idx].Phase == trace.PhaseSync {
			switch sp.op {
			case opRead:
				m["fs.read.bytes.sync"] += float64(sp.bytes)
			case opMeta:
				m["fs.meta.calls.sync"]++
			}
		}
		if sp.task == 0 && rw < nClients {
			if inPhase[rw] == nil {
				inPhase[rw] = make([]float64, len(phases[rw]))
			}
			inPhase[rw][idx] += d
		}
	}

	for rw, sums := range inPhase {
		for i, sum := range sums {
			ph := phases[rw][i]
			if dur := ph.T1 - ph.T0; sum > dur+1e-9*(1+dur) {
				problems = append(problems, fmt.Sprintf("%s: client %d spent %.9gs in FS and Comm calls inside a %.9gs %s phase",
					r.job.name, rw, sum, dur, ph.Phase))
			}
		}
	}

	// A client's phases plus its time outside them must add up to its
	// span: phases that overlapped, or ran outside the rank's main
	// function, would break the sum.
	for rank, ri := range tr.ranks {
		rw := row(int32(rank))
		if rw < 0 || rw >= nClients {
			continue
		}
		span := ri.v1 - ri.v0
		var sum float64
		for _, ph := range phases[rw] {
			sum += ph.T1 - ph.T0
		}
		other := span - covered(phases[rw], ri.v0, ri.v1)
		m["phase.other.virtual_s"] += other
		if math.Abs(sum+other-span) > 1e-9*(1+span) {
			problems = append(problems, fmt.Sprintf("%s: client %d phases %.9gs + other %.9gs != span %.9gs",
				r.job.name, rw, sum, other, span))
		}
	}
	return problems
}

// parentPhase returns the index of the phase span (sorted by start) that
// contains [v0, v1], or -1. Server rows may hold overlapping drain spans
// from several writers, so a few earlier starts are examined too.
func parentPhase(phases []trace.Span, v0, v1 float64) int {
	i := sort.Search(len(phases), func(i int) bool { return phases[i].T0 > v0 }) - 1
	for k := 0; i >= 0 && k < 16; i, k = i-1, k+1 {
		if phases[i].T0 <= v0 && v1 <= phases[i].T1 {
			return i
		}
	}
	return -1
}

// covered returns how much of [lo, hi] the spans cover.
func covered(spans []trace.Span, lo, hi float64) float64 {
	total, end := 0.0, lo
	for _, s := range spans { // sorted by start
		a, b := math.Max(s.T0, end), math.Min(s.T1, hi)
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

// hostMetrics adds the profile's host cost by bucket and checks that the
// buckets add up to the profile totals.
func hostMetrics(m map[string]float64, hp *hostProfile) []string {
	var problems []string
	var cpu, alloc float64
	for _, b := range hostBuckets {
		m["host.cpu_s."+b] = hp.cpuSeconds[b]
		m["host.alloc_bytes."+b] = hp.allocBytes[b]
		cpu += hp.cpuSeconds[b]
		alloc += hp.allocBytes[b]
	}
	if math.Abs(cpu-hp.cpuTotal) > 1e-9*(1+hp.cpuTotal) {
		problems = append(problems, fmt.Sprintf("host CPU by module sums to %.9gs, profile total %.9gs", cpu, hp.cpuTotal))
	}
	if math.Abs(alloc-hp.allocTotal) > 1e-9*(1+hp.allocTotal) {
		problems = append(problems, fmt.Sprintf("host allocation by module sums to %.9g bytes, profile total %.9g", alloc, hp.allocTotal))
	}
	return problems
}
