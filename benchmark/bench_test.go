package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"genxio/internal/trace"
)

// small keeps the benchmark's own tests quick: 12-step checkpoint jobs and
// a lab-scale 0.1 chain for restart-mxn. Twelve steps make four
// generations, so real-checkpoint (real arithmetic at steps 1 and 7) ships
// two dirty deltas and one clean one.
var small = size{steps: 12}

// virtualMetrics are the end-to-end metrics on the simulated clock.
var virtualMetrics = []string{"job_virtual_s", "visible_write_s", "sync_wait_s", "visible_read_s", "write_p50_s", "write_p80_s", "bytes_stored"}

// hostOnly reports whether a per-layer metric is measured on the host
// clock, so it may differ between runs.
func hostOnly(name string) bool {
	return strings.HasSuffix(name, ".host_s") || strings.HasPrefix(name, "host.") || name == "wall_s" || name == "trace.overhead_ratio"
}

// tracedRun sets a workload up and makes one traced pass, failing the test
// on any failed output or layer-sum check.
func tracedRun(t *testing.T, name string, seed uint64) (e2e, layers map[string]float64) {
	t.Helper()
	jobs, err := setUp(name, seed, small)
	if err != nil {
		t.Fatal(err)
	}
	ps := runPass(jobs, true)
	if ps.failed != 0 || len(ps.why) != 0 {
		t.Fatalf("%s seed %d: %d of %d operations failed: %v", name, seed, ps.failed, ps.attempted, ps.why)
	}
	layers, problems := layerMetrics(ps.results)
	if len(problems) != 0 {
		t.Fatalf("%s seed %d: layer sums: %v", name, seed, problems)
	}
	e2e = ps.endToEnd()
	addWritePercentiles(e2e, ps.writes())
	return e2e, layers
}

func TestSimulatedWorkloadsRepeatAtOneSeed(t *testing.T) {
	for _, name := range []string{"paper-checkpoint", "engine-checkpoint", "restart-mxn"} {
		t.Run(name, func(t *testing.T) {
			e1, l1 := tracedRun(t, name, 7)
			e2, l2 := tracedRun(t, name, 7)
			for _, k := range virtualMetrics {
				if e1[k] != e2[k] {
					t.Errorf("%s: %v then %v at one seed", k, e1[k], e2[k])
				}
				if e1[k] <= 0 {
					t.Errorf("%s = %v, want > 0", k, e1[k])
				}
			}
			for k, v := range l1 {
				if !hostOnly(k) && l2[k] != v {
					t.Errorf("per-layer %s: %v then %v at one seed", k, v, l2[k])
				}
			}
			e3, _ := tracedRun(t, name, 8)
			changed := false
			for _, k := range virtualMetrics {
				changed = changed || e3[k] != e1[k]
			}
			if !changed {
				t.Errorf("seed 8 reproduced every virtual metric of seed 7: the seed does not reach the program")
			}
		})
	}
}

// On ChanWorld a server's file lists datasets in message arrival order, so
// directory checksums, and with them the manifests' text, differ by a few
// bytes between runs; the datasets themselves do not.
func TestRealCheckpointStoresTheSameBytes(t *testing.T) {
	e1, l1 := tracedRun(t, "real-checkpoint", 7)
	e2, l2 := tracedRun(t, "real-checkpoint", 7)
	if math.Abs(e1["bytes_stored"]-e2["bytes_stored"]) > 64 || e1["bytes_stored"] <= 0 {
		t.Errorf("bytes_stored %v then %v at one seed", e1["bytes_stored"], e2["bytes_stored"])
	}
	for _, k := range []string{"hdf.datasets_written", "hdf.bytes_stored", "rocpanda.write.dirty_panes", "rocpanda.write.clean_panes"} {
		if l1[k] != l2[k] {
			t.Errorf("%s: %v then %v at one seed", k, l1[k], l2[k])
		}
	}
	if l1["rocpanda.write.dirty_panes"] == 0 || l1["rocpanda.write.clean_panes"] == 0 {
		t.Errorf("want both dirty and clean panes, got %v dirty, %v clean", l1["rocpanda.write.dirty_panes"], l1["rocpanda.write.clean_panes"])
	}
}

func TestTracedPassReportsEveryLayer(t *testing.T) {
	jobs, err := setUp("engine-checkpoint", 3, small)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := startProfiler()
	if err != nil {
		t.Fatal(err)
	}
	ps := runPass(jobs, true)
	hp, err := prof.stop()
	if err != nil {
		t.Fatal(err)
	}
	m, problems := layerMetrics(ps.results)
	problems = append(problems, hostMetrics(m, hp)...)
	if len(problems) != 0 {
		t.Fatal(problems)
	}
	for _, k := range []string{
		"fs.write.calls", "fs.read.calls", "fs.meta.calls", "fs.write.bytes", "fs.read.bytes.sync", "fs.meta.calls.sync",
		"comm.send.calls", "comm.recv.calls", "comm.collective.calls", "comm.send.bytes",
		"phase.compute.virtual_s", "phase.write.virtual_s", "phase.sync.virtual_s", "phase.drain.virtual_s", "phase.other.virtual_s",
		"iosched.write.tasks", "iosched.read.tasks", "rocpanda.write.clean_panes", "hdf.datasets_written",
	} {
		if m[k] <= 0 {
			t.Errorf("%s = %v, want > 0", k, m[k])
		}
	}
	if hp.cpuTotal <= 0 || hp.allocTotal <= 0 {
		t.Errorf("empty profiles: %v CPU seconds, %v bytes", hp.cpuTotal, hp.allocTotal)
	}
}

func TestBenchmarkJSONMatchesReportedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)",
					kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndDefs)
	check("per_layer", spec.PerLayer, perLayerDefs())
}

func TestNearestRank(t *testing.T) {
	vs := make([]float64, 51)
	for i := range vs {
		vs[i] = float64(50 - i)
	}
	if got := nearestRank(vs, 0.5); got != 25 {
		t.Errorf("p50 of 0..50 = %v, want 25", got)
	}
	// 10 of the 51 samples lie beyond p80.
	if got := nearestRank(vs, 0.8); got != 40 {
		t.Errorf("p80 of 0..50 = %v, want 40", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestPhaseCoverage(t *testing.T) {
	phases := []trace.Span{
		{Phase: "compute", T0: 1, T1: 3},
		{Phase: "write", T0: 3, T1: 4},
		{Phase: "sync", T0: 6, T1: 9},
	}
	if got := covered(phases, 0, 10); got != 6 {
		t.Errorf("covered = %v, want 6", got)
	}
	if got := covered(phases, 2, 7); got != 3 {
		t.Errorf("covered within [2,7] = %v, want 3", got)
	}
	for _, c := range []struct {
		v0, v1 float64
		want   int
	}{{1, 2, 0}, {3, 3.5, 1}, {4.5, 5, -1}, {8, 9, 2}, {3.5, 6.5, -1}} {
		if got := parentPhase(phases, c.v0, c.v1); got != c.want {
			t.Errorf("parent of [%v,%v] = %d, want %d", c.v0, c.v1, got, c.want)
		}
	}
}

func TestChargeFrames(t *testing.T) {
	for _, c := range []struct {
		funcs []string
		want  string
	}{
		{[]string{"runtime.memmove", "genxio/internal/rt.(*memFile).WriteAt", "genxio/internal/hdf.(*Writer).Write"}, "rt"},
		{[]string{"genxio/internal/stats.(*RNG).Normal", "genxio/internal/cluster.(*simClock).Compute"}, "cluster"},
		{[]string{"time.Now", "main.(*tracedFS).end", "genxio/internal/hdf.Open"}, "bench"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
	} {
		if got := chargeFrames(c.funcs); got != c.want {
			t.Errorf("chargeFrames(%v) = %s, want %s", c.funcs, got, c.want)
		}
	}
	if math.IsNaN(scaleHeapSample(1, 512<<10, 512<<10)) {
		t.Error("scaleHeapSample returned NaN")
	}
}
