// Command benchmark is the repository's benchmark of the GENx I/O stack.
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// It sets the workload up (several times, reporting the median set-up
// time), then repeats the workload's timed part until --seconds have
// passed, checks every pass's outputs, and prints as its last line one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, medians over the passes; with --trace 1
// they are the per-layer ones, from one traced and profiled pass beside one
// untraced pass. NOTES.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"slices"
	"time"
)

// setupRuns is how many times a run sets its workload up.
const setupRuns = 3

// minPasses is the fewest timed passes a run makes, so medians have a
// middle.
const minPasses = 3

// endToEndDefs lists the end-to-end metrics in reporting order.
var endToEndDefs = []metricDef{
	{"job_virtual_s", "s"},
	{"visible_write_s", "s"},
	{"sync_wait_s", "s"},
	{"visible_read_s", "s"},
	{"write_p50_s", "s"},
	{"write_p80_s", "s"},
	{"bytes_stored", "bytes"},
	{"cpu_s", "s"},
	{"alloc_bytes", "bytes"},
	{"peak_rss_bytes", "bytes"},
	{"setup_s", "s"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: paper-checkpoint, engine-checkpoint, restart-mxn or real-checkpoint")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "how long to repeat the timed part")
	traced := flag.Int("trace", 0, "1: print per-layer metrics from a traced pass")
	flag.Parse()
	if !slices.Contains(workloadNames, *name) || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "usage: --workload %v --seed n --seconds s --trace 0|1\n", workloadNames)
		os.Exit(2)
	}
	// The load is one process on at most two CPUs, wherever it runs.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	res, err := run(*name, *seed, *seconds, *traced == 1, size{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run sets the workload up and measures it.
func run(name string, seed uint64, seconds float64, traced bool, sz size) (*result, error) {
	var jobs []*job
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		cpu0 := cpuSeconds()
		var err error
		if jobs, err = setUp(name, seed, sz); err != nil {
			return nil, err
		}
		setups = append(setups, cpuSeconds()-cpu0)
	}
	res := &result{Metrics: make(map[string]metricValue)}
	var why []string
	if traced {
		why = measureTraced(jobs, res)
	} else {
		why = measure(jobs, seconds, res)
		res.Metrics["setup_s"] = metricValue{median(setups), "s"}
	}
	for _, w := range why {
		fmt.Fprintln(os.Stderr, "check failed:", w)
	}
	res.Correct = len(why) == 0
	return res, nil
}

// pass is one run of a workload's timed part.
type pass struct {
	results   []jobResult
	wall      float64 // seconds
	cpu       float64 // process CPU seconds
	alloc     float64 // bytes allocated
	peakMem   float64 // peak resident bytes held by the Go runtime
	attempted int
	failed    int
	why       []string
}

// runPass runs every job of the timed part once, then checks the outputs
// outside the timed region.
func runPass(jobs []*job, traced bool) *pass {
	// Start every pass from a collected heap with its free memory returned
	// to the OS, as a fresh process would.
	debug.FreeOSMemory()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ps := &pass{}
	mem := startMemSampler()
	cpu0, t0 := cpuSeconds(), time.Now()
	for _, j := range jobs {
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		ps.results = append(ps.results, j.run(tr))
	}
	ps.wall, ps.cpu = time.Since(t0).Seconds(), cpuSeconds()-cpu0
	ps.peakMem = mem.finish()
	runtime.ReadMemStats(&m1)
	ps.alloc = float64(m1.TotalAlloc - m0.TotalAlloc)
	for i := range ps.results {
		r := &ps.results[i]
		failed, why := r.failures()
		ps.attempted += r.job.attempted()
		ps.failed += failed
		ps.why = append(ps.why, why...)
	}
	return ps
}

// release drops the pass's stores once its metrics are taken.
func (ps *pass) release() {
	for i := range ps.results {
		ps.results[i].store = nil
	}
}

// endToEnd computes the pass's end-to-end metrics on the jobs' own clocks,
// all but the write percentiles, which pool the samples of every pass.
func (ps *pass) endToEnd() map[string]float64 {
	m := map[string]float64{"cpu_s": ps.cpu, "alloc_bytes": ps.alloc, "peak_rss_bytes": ps.peakMem}
	for _, r := range ps.results {
		m["job_virtual_s"] += r.virtualS
		m["bytes_stored"] += float64(r.stored)
		if rep := r.report; rep != nil {
			m["visible_write_s"] += rep.VisibleWrite
			m["sync_wait_s"] += rep.SyncWait
			m["visible_read_s"] += rep.VisibleRead
		}
	}
	return m
}

// writes returns the pass's write-phase samples: per job and generation,
// the slowest client's write.
func (ps *pass) writes() []float64 {
	var out []float64
	for i := range ps.results {
		out = append(out, slowestWrites(&ps.results[i])...)
	}
	return out
}

// addWritePercentiles sets write_p50_s and write_p80_s from samples. With
// 51 or more samples, p80 is the highest percentile with at least 10
// samples beyond it.
func addWritePercentiles(m map[string]float64, samples []float64) {
	m["write_p50_s"] = nearestRank(samples, 0.5)
	m["write_p80_s"] = nearestRank(samples, 0.8)
}

// slowestWrites returns, per generation, the slowest client's write phase
// from the program's phase recorder: the g-th write span of every client
// row belongs to generation g.
func slowestWrites(r *jobResult) []float64 {
	var out []float64
	perRow := make(map[int]int)
	for _, s := range r.rec.Spans() {
		if s.Phase != "write" || s.Rank >= r.job.clients {
			continue
		}
		g := perRow[s.Rank]
		perRow[s.Rank]++
		for len(out) <= g {
			out = append(out, 0)
		}
		out[g] = max(out[g], s.T1-s.T0)
	}
	return out
}

// measure repeats the timed part until seconds have passed (at least
// minPasses times) and reports the medians of the end-to-end metrics.
func measure(jobs []*job, seconds float64, res *result) []string {
	start := time.Now()
	per := make(map[string][]float64)
	var why []string
	var writes []float64
	for i := 0; ; i++ {
		ps := runPass(jobs, false)
		res.Attempted += ps.attempted
		res.Failed += ps.failed
		why = append(why, ps.why...)
		for k, v := range ps.endToEnd() {
			per[k] = append(per[k], v)
		}
		writes = append(writes, ps.writes()...)
		ps.release()
		fmt.Fprintf(os.Stderr, "pass %d: %.2fs wall, %.2fs CPU, %.0f MB allocated, %.0f MB peak\n", i+1, ps.wall, ps.cpu, ps.alloc/1e6, ps.peakMem/1e6)
		elapsed := time.Since(start).Seconds()
		if i+1 >= minPasses && elapsed+ps.wall > seconds {
			break
		}
	}
	m := make(map[string]float64)
	for k, vs := range per {
		m[k] = median(vs)
	}
	addWritePercentiles(m, writes)
	fmt.Fprintf(os.Stderr, "%d write samples\n", len(writes))
	for _, d := range endToEndDefs {
		if v, ok := m[d.name]; ok {
			res.Metrics[d.name] = metricValue{v, d.unit}
		}
	}
	return why
}

// measureTraced runs one untraced pass and one traced, profiled pass and
// reports the per-layer metrics.
func measureTraced(jobs []*job, res *result) []string {
	plain := runPass(jobs, false)
	plain.release()
	prof, err := startProfiler()
	if err != nil {
		return []string{err.Error()}
	}
	traced := runPass(jobs, true)
	hp, err := prof.stop()
	if err != nil {
		return []string{err.Error()}
	}
	why := append(plain.why, traced.why...)
	res.Attempted = plain.attempted + traced.attempted
	res.Failed = plain.failed + traced.failed

	m, problems := layerMetrics(traced.results)
	why = append(why, problems...)
	why = append(why, hostMetrics(m, hp)...)
	m["wall_s"] = plain.wall
	m["trace.overhead_ratio"] = traced.wall / plain.wall
	m["failed_ops_ratio"] = float64(res.Failed) / float64(res.Attempted)
	m["write.samples"] = float64(len(traced.writes()))
	for _, d := range perLayerDefs() {
		res.Metrics[d.name] = metricValue{m[d.name], d.unit}
	}
	return why
}

// memSampler tracks the peak of the memory the Go runtime holds from the
// OS, less what it has released back: the process's resident set, as the
// runtime accounts it. A process-wide high-water mark would also count
// set-up and earlier passes.
type memSampler struct {
	stop, done chan struct{}
	peak       float64
}

func startMemSampler() *memSampler {
	s := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	samples := []rtmetrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	read := func() {
		rtmetrics.Read(samples)
		s.peak = max(s.peak, float64(samples[0].Value.Uint64()-samples[1].Value.Uint64()))
	}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			read()
			select {
			case <-s.stop:
				read()
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the peak in bytes.
func (s *memSampler) finish() float64 {
	close(s.stop)
	<-s.done
	return s.peak
}

// median returns the middle value (the mean of the middle two for an even
// count).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the q-quantile by the nearest-rank rule: the
// smallest sample with at least a q share of the samples at or below it.
func nearestRank(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	k := int(math.Ceil(q * float64(len(s))))
	return s[max(k, 1)-1]
}
