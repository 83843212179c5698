package main

// The four workloads. Each is a set-up step and a timed part made of one or
// more jobs; a job is one rocman.Run over a fresh world. See NOTES.md for
// why each workload was chosen and which layers it leaves out.

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"genxio/internal/catalog"
	"genxio/internal/cluster"
	"genxio/internal/fssim"
	"genxio/internal/hdf"
	"genxio/internal/metrics"
	"genxio/internal/mpi"
	"genxio/internal/rocman"
	"genxio/internal/rocpanda"
	"genxio/internal/rt"
	"genxio/internal/sim"
	"genxio/internal/snapshot"
	"genxio/internal/trace"
	"genxio/internal/workload"
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"paper-checkpoint", "engine-checkpoint", "restart-mxn", "real-checkpoint"}

// size shrinks a workload for the benchmark's own tests; the zero value is
// the benchmark proper.
type size struct {
	steps int // overrides the step count of the checkpoint jobs when > 0
}

// job is one rocman.Run over a fresh world.
type job struct {
	name             string
	clients, servers int
	cfg              rocman.Config // Metrics and Trace are set per run

	// simulated selects the Turing platform with this noise seed; when
	// false the job runs on mpi.ChanWorld over an rt.MemFS, on the
	// process's CPU clock.
	simulated bool
	noiseSeed uint64
	preload   *rt.MemFS // copied into the platform's store before the job

	gens, restores int                        // operations the job asks for
	verify         func(store rt.FS) []string // restore bit-exactness, optional
}

// jobResult is one run of a job.
type jobResult struct {
	job      *job
	err      error
	report   *rocman.Report
	virtualS float64 // makespan on the job's own clock
	stored   int64   // bytes the job wrote to its store
	store    *rt.MemFS
	reg      *metrics.Registry
	rec      *trace.Recorder
	tr       *tracer
}

// run executes the job, tracing it when tr is non-nil.
func (j *job) run(tr *tracer) jobResult {
	res := jobResult{job: j, reg: metrics.New(), rec: trace.New(), tr: tr}
	cfg := j.cfg
	cfg.Metrics, cfg.Trace = res.reg, res.rec
	main := func(ctx mpi.Ctx) error {
		rep, err := rocman.Run(ctx, cfg)
		if rep != nil {
			res.report = rep
		}
		return err
	}
	n := j.clients + j.servers
	if j.simulated {
		plat := cluster.Turing()
		if j.preload != nil {
			src, newFS := j.preload, plat.NewFS
			plat.NewFS = func(env *sim.Env) fssim.Model {
				m := newFS(env)
				res.err = copyStore(m.Backing(), src)
				return m
			}
		}
		world := cluster.NewWorld(plat, j.noiseSeed)
		if err := world.Run(n, tr.wrapMain(main)); err != nil && res.err == nil {
			res.err = err
		}
		res.virtualS = world.VirtualTime()
		res.stored = world.FSModel().BytesWritten()
		res.store = world.FSModel().Backing()
	} else {
		store := rt.NewMemFS()
		counted := &countingFS{FS: store}
		clock := newCPUClock()
		res.err = mpi.NewChanWorld(counted, 1).Run(n, withClock(clock, tr.wrapMain(main)))
		res.virtualS = clock.Now()
		res.stored = counted.written.Load()
		res.store = store
	}
	if res.err == nil && res.report == nil {
		res.err = fmt.Errorf("%s: no report from client rank 0", j.name)
	}
	return res
}

// attempted counts the job's operations: the job, the generations it asks
// for and its restores.
func (j *job) attempted() int { return 1 + j.gens + j.restores }

// failures checks one run's outputs and returns how many of its operations
// failed, with a line per failure.
func (r *jobResult) failures() (int, []string) {
	j := r.job
	if r.err != nil {
		return j.attempted(), []string{fmt.Sprintf("%s: %v", j.name, r.err)}
	}
	failed := 0
	var why []string
	reports, err := snapshot.Fsck(r.store, "")
	if err != nil {
		return j.gens, []string{fmt.Sprintf("%s: fsck: %v", j.name, err)}
	}
	for _, rep := range reports {
		if !snapshot.Clean([]snapshot.GenReport{rep}) {
			failed++
			why = append(why, fmt.Sprintf("%s: fsck %s: %s", j.name, rep.Base, rep.Verdict))
		}
	}
	gens, err := snapshot.Generations(r.store, j.cfg.OutputDir+"/")
	if err != nil {
		return j.gens, []string{fmt.Sprintf("%s: listing generations: %v", j.name, err)}
	}
	committed := 0
	for _, g := range gens {
		if g.Committed {
			committed++
		}
	}
	want := j.gens
	if j.cfg.RetainGenerations > 0 {
		want = min(want, j.cfg.RetainGenerations)
	}
	if committed < want {
		failed += want - committed
		why = append(why, fmt.Sprintf("%s: %d committed generations, want at least %d", j.name, committed, want))
	}
	if j.verify != nil {
		if bad := j.verify(r.store); len(bad) > 0 {
			failed += j.restores
			for _, b := range bad {
				why = append(why, j.name+": "+b)
			}
		}
	}
	return failed, why
}

// countingFS counts the bytes written through it: bytes_stored for jobs on
// a plain rt.MemFS.
type countingFS struct {
	rt.FS
	written atomic.Int64
}

func (c *countingFS) Create(name string) (rt.File, error) {
	f, err := c.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) Open(name string) (rt.File, error) {
	f, err := c.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

type countingFile struct {
	rt.File
	fs *countingFS
}

func (f *countingFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.fs.written.Add(int64(n))
	return n, err
}

// copyStore copies every file of src into dst.
func copyStore(dst, src *rt.MemFS) error {
	names, err := src.List("")
	if err != nil {
		return err
	}
	for _, name := range names {
		in, err := src.Open(name)
		if err != nil {
			return err
		}
		n, err := in.Size()
		if err != nil {
			return err
		}
		buf := make([]byte, n)
		if n > 0 {
			if _, err := in.ReadAt(buf, 0); err != nil {
				return fmt.Errorf("copying %s: %w", name, err)
			}
		}
		out, err := dst.Create(name)
		if err != nil {
			return err
		}
		if _, err := out.WriteAt(buf, 0); err != nil {
			return fmt.Errorf("copying %s: %w", name, err)
		}
	}
	return nil
}

// splitmix derives independent 64-bit seeds from the workload seed.
func splitmix(seed, stream uint64) uint64 {
	z := seed + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// drawnMeshSpread is the lognormal spread of the block sizes of a mesh
// drawn from the workload seed. The paper's 0.35 makes each draw a
// different load balance: over six seeds it moved restart-mxn's peak
// memory from 925 MB to 1140 MB and real-checkpoint's allocation by 10%.
// At 0.05 the same seeds stay within 3% of each other.
const drawnMeshSpread = 0.05

// labScale is the paper's lab-scale motor with the benchmark's cadence: a
// snapshot every 4 steps. With drawMesh the block sizes are drawn from the
// workload seed, with drawnMeshSpread; without it the mesh is the paper's
// own.
func labScale(scale float64, steps int, seed uint64, drawMesh bool) workload.Spec {
	spec := workload.LabScale(scale)
	spec.Steps = steps
	spec.SnapshotEvery = 4
	if drawMesh {
		spec.Seed = splitmix(seed, 1)
		spec.Cylinder.Spread = drawnMeshSpread
	}
	return spec
}

// simJob is a Rocpanda job on simulated Turing with the paper's settings:
// synchronous active buffering, spread servers, the HDF4 cost profile.
func simJob(name string, clients, servers int, spec workload.Spec, stride int, noiseSeed uint64) *job {
	plat := cluster.Turing()
	return &job{
		name: name, clients: clients, servers: servers,
		simulated: true, noiseSeed: noiseSeed,
		gens: spec.NumSnapshots(),
		cfg: rocman.Config{
			Workload:       spec,
			IO:             rocman.IORocpanda,
			Profile:        hdf.HDF4Profile(),
			BufferBW:       plat.MemcpyBW,
			ServerBufferBW: 300e6,
			StrideRealWork: stride,
			OutputDir:      "out",
			Rocpanda: rocpanda.Config{
				NumServers:      servers,
				ActiveBuffering: true,
				Placement:       rocpanda.Spread,
			},
		},
	}
}

// engines turns on every engine the paper's Rocpanda lacks.
func engines(c *rocpanda.Config) {
	c.AsyncDrain = true
	c.DrainWriters = 2
	c.BufferBudgetBytes = 256 << 20
	c.DeltaSnapshots = true
	c.FullEvery = 4
	c.ReplicationFactor = 2
	c.ParallelRead = true
	c.ReadWorkers = 4
	c.ReadBudgetBytes = 256 << 20
}

// checkpointSteps is the step count of a checkpoint job: the full steps
// unless the size shrinks it.
func (s size) checkpointSteps(full int) int {
	if s.steps > 0 {
		return s.steps
	}
	return full
}

// setUp prepares a workload. The set-up of the checkpoint workloads builds
// the job and runs a short warm-up job of the same configuration (its
// results are discarded); that of restart-mxn writes the delta chain the
// timed part restores.
func setUp(name string, seed uint64, sz size) ([]*job, error) {
	switch name {
	case "paper-checkpoint", "engine-checkpoint", "real-checkpoint":
		// 200 steps at a snapshot every 4 make 51 generations per job.
		// real-checkpoint takes 36 steps (10 generations), so a run repeats
		// it about 17 times: its one restore per pass varies by a tenth
		// from pass to pass on the CPU clock, and the median of more
		// passes steadies visible_read_s.
		steps := sz.checkpointSteps(200)
		if name == "real-checkpoint" {
			steps = sz.checkpointSteps(36)
		}
		mk := func(steps int) *job {
			switch name {
			case "paper-checkpoint":
				j := simJob(name, 16, 2, labScale(0.1, steps, seed, false), 8, splitmix(seed, 2))
				j.cfg.MeasureRestart, j.restores = true, 1
				return j
			case "engine-checkpoint":
				j := simJob(name, 16, 2, labScale(0.1, steps, seed, false), 8, splitmix(seed, 2))
				engines(&j.cfg.Rocpanda)
				j.cfg.MeasureRestart, j.restores = true, 1
				return j
			default:
				return realJob(labScale(0.3, steps, seed, true))
			}
		}
		j := mk(steps)
		if err := j.cfg.Rocpanda.Validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		warm := mk(8)
		if r := warm.run(nil); r.err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", name, r.err)
		}
		return []*job{j}, nil
	case "restart-mxn":
		return setUpRestart(seed, sz)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// realJob is the I/O stack on the host clock: ChanWorld over rt.MemFS
// with no cost model, 4 clients and 1 server, every write-side engine on.
// Real arithmetic runs every 6 steps (steps 1, 7, 13, ...) and a delta
// is dirty when one of its 4 steps did real arithmetic: of the 7 deltas of
// a 36-step job, 4 are dirty and 3 clean.
func realJob(spec workload.Spec) *job {
	return &job{
		name: "real-checkpoint", clients: 4, servers: 1,
		gens: spec.NumSnapshots(), restores: 1,
		cfg: rocman.Config{
			Workload:          spec,
			IO:                rocman.IORocpanda,
			Profile:           hdf.NullProfile(),
			StrideRealWork:    6,
			OutputDir:         "out",
			RetainGenerations: 3,
			MeasureRestart:    true,
			Rocpanda: rocpanda.Config{
				NumServers:        1,
				ActiveBuffering:   true,
				AsyncDrain:        true,
				DrainWriters:      2,
				BufferBudgetBytes: 256 << 20,
				DeltaSnapshots:    true,
				FullEvery:         4,
			},
		},
	}
}

// restoreTopologies are the restart-mxn readers, both unlike the 16x2
// writer.
var restoreTopologies = []struct{ clients, servers int }{{8, 1}, {12, 3}}

// setUpRestart writes a depth-3 delta chain with R=2 at LabScale(0.3) from
// 16 clients and 2 servers: a full generation at step 0 and deltas at
// steps 4, 8 and 12. With real arithmetic every 6 steps the deltas at 4 and
// 8 are dirty and the head is clean, so the head's panes resolve to an
// older link of its chain.
func setUpRestart(seed uint64, sz size) ([]*job, error) {
	steps := 12
	scale := 0.3
	if sz.steps > 0 {
		scale = 0.1
	}
	spec := labScale(scale, steps, seed, true)
	w := simJob("restart-mxn writer", 16, 2, spec, 6, splitmix(seed, 3))
	engines(&w.cfg.Rocpanda)
	r := w.run(nil)
	if r.err != nil {
		return nil, fmt.Errorf("restart-mxn set-up: %w", r.err)
	}
	head := fmt.Sprintf("%s/snap%06d", w.cfg.OutputDir, steps)
	chain, err := snapshot.LoadChain(r.store, head)
	if err != nil {
		return nil, fmt.Errorf("restart-mxn set-up: %w", err)
	}
	if len(chain) != 4 {
		return nil, fmt.Errorf("restart-mxn set-up: chain of %s has %d links, want 4", head, len(chain))
	}
	want, err := resolveChain(r.store, head)
	if err != nil {
		return nil, fmt.Errorf("restart-mxn set-up: %w", err)
	}
	var jobs []*job
	for i, topo := range restoreTopologies {
		rspec := spec
		rspec.Steps = 0
		j := simJob(fmt.Sprintf("restart-mxn %dx%d", topo.clients, topo.servers), topo.clients, topo.servers, rspec, 6, splitmix(seed, 4+uint64(i)))
		engines(&j.cfg.Rocpanda)
		j.cfg.RestartFrom = head
		j.cfg.OutputDir = fmt.Sprintf("restore-%dx%d", topo.clients, topo.servers)
		j.preload = r.store
		j.restores = 1
		out := j.cfg.OutputDir + "/snap000000"
		j.verify = func(store rt.FS) []string {
			got, err := resolveChain(store, out)
			if err != nil {
				return []string{err.Error()}
			}
			return diffPanes(want, got)
		}
		if err := j.cfg.Rocpanda.Validate(); err != nil {
			return nil, fmt.Errorf("restart-mxn: %w", err)
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// paneSet maps window → pane → dataset name → dataset.
type paneSet map[string]map[int]map[string]storedSet

type storedSet struct {
	typ  hdf.DType
	dims []int64
	data []byte
}

// resolveChain reads the panes a generation restores to: its chain's
// catalogs resolve each pane to the newest link holding it, and the hdf
// reader fetches and CRC-checks every dataset of the pane from that link's
// preferred copy.
func resolveChain(store rt.FS, base string) (paneSet, error) {
	chain, err := snapshot.LoadChain(store, base)
	if err != nil {
		return nil, err
	}
	cats := snapshot.ChainCatalogs(chain)
	out := make(paneSet)
	var windows []string
	seen := make(map[string]bool)
	for _, c := range cats {
		for _, e := range c.Entries {
			if !seen[e.Window] {
				seen[e.Window] = true
				windows = append(windows, e.Window)
			}
		}
	}
	sort.Strings(windows)
	for _, win := range windows {
		wanted := make(map[int]bool)
		for _, c := range cats {
			for _, id := range c.Panes(win) {
				wanted[id] = true
			}
		}
		panes := make(map[int]map[string]storedSet)
		for i, ids := range catalog.ResolvePanes(cats, win, wanted) {
			for _, plan := range cats[i].PlanReads(win, ids) {
				rd, err := hdf.Open(store, plan.File, rt.NewWallClock(), hdf.NullProfile())
				if err != nil {
					return nil, err
				}
				for _, e := range plan.Entries {
					d, ok := rd.Lookup(e.Name)
					if !ok {
						rd.Close()
						return nil, fmt.Errorf("%s: dataset %s missing from %s", base, e.Name, plan.File)
					}
					data, err := rd.ReadData(d)
					if err != nil {
						rd.Close()
						return nil, err
					}
					if panes[e.Pane] == nil {
						panes[e.Pane] = make(map[string]storedSet)
					}
					panes[e.Pane][e.Attr] = storedSet{typ: d.Type, dims: d.Dims, data: data}
				}
				rd.Close()
			}
		}
		out[win] = panes
	}
	return out, nil
}

// diffPanes compares two resolved pane sets pane for pane and attribute for
// attribute.
func diffPanes(want, got paneSet) []string {
	var bad []string
	for win, wp := range want {
		gp := got[win]
		if len(gp) != len(wp) {
			bad = append(bad, fmt.Sprintf("window %s: %d panes restored, want %d", win, len(gp), len(wp)))
		}
		for id, wattrs := range wp {
			gattrs := gp[id]
			if len(gattrs) != len(wattrs) {
				bad = append(bad, fmt.Sprintf("%s pane %d: %d attributes, want %d", win, id, len(gattrs), len(wattrs)))
				continue
			}
			for attr, w := range wattrs {
				g, ok := gattrs[attr]
				if !ok || g.typ != w.typ || !slices.Equal(g.dims, w.dims) || string(g.data) != string(w.data) {
					bad = append(bad, fmt.Sprintf("%s pane %d attribute %s differs", win, id, attr))
				}
			}
		}
	}
	for win := range got {
		if _, ok := want[win]; !ok {
			bad = append(bad, fmt.Sprintf("window %s restored but absent from the source", win))
		}
	}
	if len(bad) > 5 {
		bad = append(bad[:5], fmt.Sprintf("... and %d more", len(bad)-5))
	}
	return bad
}
