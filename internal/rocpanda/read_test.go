package rocpanda

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"genxio/internal/catalog"
	"genxio/internal/faults"
	"genxio/internal/hdf"
	"genxio/internal/metrics"
	"genxio/internal/mpi"
	"genxio/internal/roccom"
	"genxio/internal/rt"
)

// restartExpectIncomplete restarts file on a fresh world over fs and
// requires every client's collective read to fail with
// ErrIncompleteRestart — the degraded-not-dead contract of a damaged or
// unreachable share. Returns the run's counters (reg may be nil).
func restartExpectIncomplete(t *testing.T, fs rt.FS, file string, nClients, nServers int, reg *metrics.Registry, tune func(*Config)) map[string]int64 {
	t.Helper()
	if reg == nil {
		reg = metrics.New()
	}
	world := mpi.NewChanWorld(fs, 1)
	err := world.Run(nClients+nServers, func(ctx mpi.Ctx) error {
		cfg := Config{
			NumServers: nServers, Profile: hdf.NullProfile(),
			ActiveBuffering: true, Metrics: reg,
		}
		if tune != nil {
			tune(&cfg)
		}
		cl, err := Init(ctx, cfg)
		if err != nil {
			return err
		}
		if cl == nil {
			return nil
		}
		w := zeroWindow(t, cl.Comm().Rank(), 2)
		readErr := cl.ReadAttribute(file, w, "all")
		if err := cl.Shutdown(); err != nil {
			return err
		}
		if readErr == nil {
			t.Errorf("client %d restored %q despite the injected damage", cl.Comm().Rank(), file)
			return nil
		}
		if !errors.Is(readErr, ErrIncompleteRestart) {
			return readErr
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg.Snapshot().Counters
}

// TestParallelReadMxNBitExact is the read engine's core contract: with
// ParallelRead on, an M×N restart restores every pane bit-identical to
// the serial path, whether shrinking or growing the topology — ordering
// across files may differ, but per-file plan order and first-arrival
// dedupe make the restored state equal.
func TestParallelReadMxNBitExact(t *testing.T) {
	cases := []struct {
		name               string
		wClients, wServers int
		rClients, rServers int
	}{
		{"shrink", 8, 2, 3, 1},
		{"grow", 3, 1, 8, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := rt.NewMemFS()
			file := "pread/" + tc.name
			writeSnapshot(t, fs, file, tc.wClients, tc.wServers, 2)
			want := expectedPanes(t, tc.wClients, 2)

			serialReg := metrics.New()
			checkMxN(t, want, restartTopology(t, fs, file, tc.rClients, tc.rServers, serialReg))

			parReg := metrics.New()
			got := restartTopologyCfg(t, fs, file, tc.rClients, tc.rServers, parReg,
				func(cfg *Config) {
					cfg.ParallelRead = true
					cfg.ReadWorkers = 4
				})
			checkMxN(t, want, got)

			// Same generation, same plans: the engine must read exactly the
			// bytes the serial indexed path reads, and serve from the catalog.
			sSnap, pSnap := serialReg.Snapshot(), parReg.Snapshot()
			if s, p := sSnap.Counters["rocpanda.restart.bytes_read"], pSnap.Counters["rocpanda.restart.bytes_read"]; p != s || p == 0 {
				t.Fatalf("parallel bytes_read = %d, serial = %d; want equal and > 0", p, s)
			}
			if hits := pSnap.Counters["rocpanda.restart.catalog_hits"]; hits != int64(tc.rServers) {
				t.Fatalf("catalog_hits = %d, want %d", hits, tc.rServers)
			}
			if pSnap.Counters["rocpanda.server.reads_served"] == 0 {
				t.Fatal("parallel servers shipped nothing")
			}
			if errs := pSnap.Counters["rocpanda.read.errors"]; errs != 0 {
				t.Fatalf("read errors = %d on a healthy restart", errs)
			}
		})
	}
}

// TestParallelReadQueueFillsUnbounded pins the admission loop: with no
// byte budget every task is dealt before the first result is consumed,
// so the queue peak equals the round's task count (at least the file
// count) — the pool actually runs wide, it doesn't degenerate.
func TestParallelReadQueueFillsUnbounded(t *testing.T) {
	fs := rt.NewMemFS()
	writeSnapshot(t, fs, "pq/s", 8, 2, 2)
	reg := metrics.New()
	got := restartTopologyCfg(t, fs, "pq/s", 3, 1, reg, func(cfg *Config) { cfg.ParallelRead = true })
	checkMxN(t, expectedPanes(t, 8, 2), got)
	s := reg.Snapshot()
	// The lone server's share is the two writers' files: at least one task
	// per file must have been in flight together.
	if peak := s.Gauges["iosched.read.queue_depth"]; peak < 2 {
		t.Fatalf("iosched.read.queue_depth = %.0f, want >= 2 (both files in flight)", peak)
	}
	if waits := s.Counters["iosched.read.backpressure_waits"]; waits != 0 {
		t.Fatalf("backpressure waits = %d with no budget", waits)
	}
}

// TestParallelReadBudgetOneByteDegeneratesToSerial pins the budget
// semantics: a budget smaller than any task admits exactly one read at a
// time — every later task stalls until the pool drains — and the restart
// still restores everything bit-exact.
func TestParallelReadBudgetOneByteDegeneratesToSerial(t *testing.T) {
	fs := rt.NewMemFS()
	writeSnapshot(t, fs, "pb/s", 8, 2, 2)
	reg := metrics.New()
	got := restartTopologyCfg(t, fs, "pb/s", 3, 1, reg, func(cfg *Config) {
		cfg.ParallelRead = true
		cfg.ReadWorkers = 4
		cfg.ReadBudgetBytes = 1
	})
	checkMxN(t, expectedPanes(t, 8, 2), got)
	s := reg.Snapshot()
	if peak := s.Gauges["iosched.read.queue_depth"]; peak != 1 {
		t.Fatalf("iosched.read.queue_depth = %.0f with a 1-byte budget, want 1", peak)
	}
	if waits := s.Counters["iosched.read.backpressure_waits"]; waits < 1 {
		t.Fatalf("iosched.read.backpressure_waits = %d, want >= 1", waits)
	}
}

// TestReadListFailureDegradesNotCrash pins the first bugfix: a failed
// directory listing used to panic the server mid-round, hanging every
// client waiting for its done notification. It must instead count a read
// error and report the round failed — clients get their notifications,
// the collective completes, and the restart surfaces ErrIncompleteRestart
// instead of deadlocking. Run without RetryTimeout so a hang would be a
// hang, not a failover.
func TestReadListFailureDegradesNotCrash(t *testing.T) {
	raw := rt.NewMemFS()
	writeSnapshot(t, raw, "lf/A", 2, 1, 2)
	plan := faults.NewFSPlan(1, faults.FSRule{
		Op: faults.OpList, PathPrefix: "lf/A_s", Msg: "stale file handle",
	})
	c := restartExpectIncomplete(t, faults.WrapFS(raw, plan), "lf/A", 2, 1, nil, nil)
	if n := c["rocpanda.read.errors"]; n != 1 {
		t.Fatalf("rocpanda.read.errors = %d, want 1 (the failed listing)", n)
	}
}

// slowRenameFS delays every Rename by delay of real time: the observable
// cost of closing staged snapshot files during the pre-read flush.
type slowRenameFS struct {
	rt.FS
	delay time.Duration
}

func (f *slowRenameFS) Rename(oldname, newname string) error {
	time.Sleep(f.delay)
	return f.FS.Rename(oldname, newname)
}

// TestRestartScanTimeExcludesFlush pins the second bugfix: the restart
// scan histogram used to start before the pre-read flushOutput, so the
// drain barrier's cost was booked as scan time. Renames (which happen
// only when the flush closes staged files) are slowed by 100ms of real
// time; that cost must land in drain.flush_seconds and stay out of
// restart_scan_seconds.
func TestRestartScanTimeExcludesFlush(t *testing.T) {
	fs := &slowRenameFS{FS: rt.NewMemFS(), delay: 100 * time.Millisecond}
	reg := metrics.New()
	world := mpi.NewChanWorld(fs, 1)
	err := world.Run(2, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, Config{
			NumServers: 1, Profile: hdf.NullProfile(),
			ActiveBuffering: true, Metrics: reg,
		})
		if err != nil {
			return err
		}
		if cl == nil {
			return nil
		}
		w := buildWindow(t, cl.Comm().Rank(), 2)
		if err := cl.WriteAttribute("fl/A", w, "all", 0, 0); err != nil {
			return err
		}
		// No Sync: the buffered generation is still staged, so the read
		// must flush (and rename) it first.
		if err := cl.ReadAttribute("fl/A", w, "all"); err != nil {
			return err
		}
		return cl.Shutdown()
	})
	if err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	flush := s.Histograms["rocpanda.drain.flush_seconds"]
	scan := s.Histograms["rocpanda.server.restart_scan_seconds"]
	if flush.Count == 0 || flush.Sum < 0.09 {
		t.Fatalf("flush_seconds sum = %v over %d obs, want >= 0.09 (the slowed rename)", flush.Sum, flush.Count)
	}
	if scan.Count == 0 || scan.Sum > 0.05 {
		t.Fatalf("restart_scan_seconds sum = %v, want well under the 0.1s rename delay", scan.Sum)
	}
}

// TestRestartWastedBytesAccounting pins the third bugfix: bytes pulled
// from a file that never ships (here: payload corrupted after commit, so
// its CRC check fails) must count as bytes_wasted, not bytes_read — the
// old accounting incremented bytes_read per run before verification and
// kept it after the early return. Both with the committed catalog and
// with one rebuilt from the files' directories (the directory does not
// cover payload bytes, so the rebuild indexes the damaged file as is).
func TestRestartWastedBytesAccounting(t *testing.T) {
	for _, mode := range []string{"indexed", "rebuilt"} {
		t.Run(mode, func(t *testing.T) {
			fs := rt.NewMemFS()
			writeSnapshot(t, fs, "wb/A", 2, 1, 2)
			cat, err := catalog.Load(fs, "wb/A")
			if err != nil {
				t.Fatal(err)
			}
			if len(cat.Entries) == 0 {
				t.Fatal("empty catalog")
			}
			// Flip one bit in the middle of the last entry's stored payload:
			// the planned read catches it via the entry CRC, after reading
			// the rest of the file, which is provably re-accounted as waste.
			e := cat.Entries[len(cat.Entries)-1]
			name := cat.Files[e.File]
			if !e.HasCRC {
				t.Fatal("catalog entry carries no CRC")
			}
			if err := faults.FlipBit(fs, name, (e.Offset+e.Length/2)*8); err != nil {
				t.Fatal(err)
			}
			if mode == "rebuilt" {
				if err := fs.Remove("wb/A" + catalog.Suffix); err != nil {
					t.Fatal(err)
				}
			}
			c := restartExpectIncomplete(t, fs, "wb/A", 2, 1, nil, nil)
			if o, s := c["rocpanda.restart.files_opened"], c["rocpanda.server.files_skipped"]; o != 1 || s != 1 {
				t.Fatalf("opened %d skipped %d, want 1 and 1", o, s)
			}
			if n := c["rocpanda.restart.bytes_read"]; n != 0 {
				t.Fatalf("bytes_read = %d for a file that never shipped, want 0", n)
			}
			if n := c["rocpanda.restart.bytes_wasted"]; n <= 0 {
				t.Fatalf("bytes_wasted = %d, want > 0", n)
			}
			if n := c["rocpanda.read.errors"]; n != 1 {
				t.Fatalf("rocpanda.read.errors = %d, want 1", n)
			}
		})
	}
}

// TestReadFaultsDegradeNotCrash sweeps injected Open and ReadAt failures
// over the serial and parallel read paths: the poisoned file is skipped
// whole, the server survives, and the collective surfaces
// ErrIncompleteRestart.
func TestReadFaultsDegradeNotCrash(t *testing.T) {
	for _, par := range []bool{false, true} {
		for _, op := range []faults.FSOp{faults.OpOpen, faults.OpRead} {
			name := "serial-" + string(op)
			if par {
				name = "parallel-" + string(op)
			}
			t.Run(name, func(t *testing.T) {
				raw := rt.NewMemFS()
				writeSnapshot(t, raw, "of/A", 2, 1, 2)
				plan := faults.NewFSPlan(1, faults.FSRule{Op: op, PathPrefix: "of/A_s"})
				var tune func(*Config)
				if par {
					tune = func(cfg *Config) {
						cfg.ParallelRead = true
						cfg.ReadWorkers = 2
					}
				}
				c := restartExpectIncomplete(t, faults.WrapFS(raw, plan), "of/A", 2, 1, nil, tune)
				if n := c["rocpanda.server.files_skipped"]; n < 1 {
					t.Fatalf("files_skipped = %d, want >= 1", n)
				}
				if n := c["rocpanda.read.errors"]; n < 1 {
					t.Fatalf("rocpanda.read.errors = %d, want >= 1", n)
				}
			})
		}
	}
}

// TestParallelReadCrashMidReadFallsBack is the read engine's crash drill:
// an injected MidRead crash kills server 1 on one of its read workers
// while it serves snapshot B. The clients' stall detection must declare
// the silent server dead, and the generation fallback to snapshot A must
// then restore bit-exact from the survivor alone.
func TestParallelReadCrashMidReadFallsBack(t *testing.T) {
	for _, par := range []bool{false, true} {
		name := "serial"
		if par {
			name = "parallel"
		}
		t.Run(name, func(t *testing.T) {
			fs := rt.NewMemFS()
			writeSnapshot(t, fs, "cr/A", 4, 2, 2)
			writeSnapshot(t, fs, "cr/B", 4, 2, 2)

			plan := faults.NewCrashPlan(1, faults.MidRead, 1)
			world := mpi.NewChanWorld(fs, 1)
			err := world.Run(6, func(ctx mpi.Ctx) error {
				cl, err := Init(ctx, Config{
					NumServers: 2, Profile: hdf.NullProfile(),
					ActiveBuffering: true,
					ParallelRead:    par,
					ReadWorkers:     2,
					Crash:           plan,
					RetryTimeout:    0.05,
				})
				if err != nil {
					return err
				}
				if cl == nil {
					return nil
				}
				w := zeroWindow(t, cl.Comm().Rank(), 2)
				readErr := cl.ReadAttribute("cr/B", w, "all")
				bad := 0.0
				if readErr != nil {
					bad = 1
				}
				// The crash leaves all clients short of B; agree and fall
				// back a generation, now excluding the dead server.
				if cl.Comm().AllreduceMax(bad) > 0 {
					if err := cl.ReadAttribute("cr/A", w, "all"); err != nil {
						return err
					}
				} else {
					t.Error("no client saw the mid-read crash")
				}
				if err := checkWindow(cl.Comm().Rank(), w); err != nil {
					return err
				}
				return cl.Shutdown()
			})
			if err != nil {
				t.Fatal(err)
			}
			if !plan.Fired() {
				t.Fatal("crash plan never fired")
			}
		})
	}
}

// countingFS counts the snapshot-file operations a restart issues: Opens
// and ReadAts per .rhdf file, each file's operations in issue order, and
// every Stat.
type countingFS struct {
	rt.FS
	mu    sync.Mutex
	opens map[string]int
	reads map[string]int
	ops   map[string][]fsOp
	stats int
}

// fsOp is one logged file operation: an Open (n < 0) or a ReadAt of n
// bytes at off.
type fsOp struct{ off, n int64 }

func newCountingFS(fsys rt.FS) *countingFS {
	return &countingFS{FS: fsys, opens: make(map[string]int), reads: make(map[string]int), ops: make(map[string][]fsOp)}
}

func (f *countingFS) Open(name string) (rt.File, error) {
	file, err := f.FS.Open(name)
	if !strings.HasSuffix(name, ".rhdf") {
		return file, err
	}
	f.mu.Lock()
	f.opens[name]++
	f.ops[name] = append(f.ops[name], fsOp{n: -1})
	f.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return &countingFile{File: file, fs: f}, nil
}

func (f *countingFS) Stat(name string) (int64, error) {
	f.mu.Lock()
	f.stats++
	f.mu.Unlock()
	return f.FS.Stat(name)
}

type countingFile struct {
	rt.File
	fs *countingFS
}

func (c *countingFile) ReadAt(p []byte, off int64) (int, error) {
	c.fs.mu.Lock()
	c.fs.reads[c.Name()]++
	c.fs.ops[c.Name()] = append(c.fs.ops[c.Name()], fsOp{off: off, n: int64(len(p))})
	c.fs.mu.Unlock()
	return c.File.ReadAt(p, off)
}

// restartSome restores the wanted panes of file on 2 clients and 1 server
// over fs, failing unless every one of them arrives.
func restartSome(t *testing.T, fs rt.FS, file string, wanted map[int]bool) {
	t.Helper()
	var mu sync.Mutex
	restored := 0
	world := mpi.NewChanWorld(fs, 1)
	err := world.Run(3, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, Config{NumServers: 1, Profile: hdf.NullProfile(), ActiveBuffering: true})
		if err != nil {
			return err
		}
		if cl == nil {
			return nil
		}
		mine, err := cl.PanesForRestart(file, "fluid")
		if err != nil {
			return err
		}
		var some []int
		for _, id := range mine {
			if wanted[id] {
				some = append(some, id)
			}
		}
		w, err := roccom.New().NewWindow("fluid")
		if err != nil {
			return err
		}
		w.NewAttribute(roccom.AttrSpec{Name: "pressure", Loc: roccom.NodeLoc, Type: hdf.F64, NComp: 1})
		w.NewAttribute(roccom.AttrSpec{Name: "flags", Loc: roccom.PaneLoc, Type: hdf.I32, NComp: 1})
		readErr := cl.ReadPanes(file, w, "all", some)
		mu.Lock()
		restored += len(w.PaneIDs())
		mu.Unlock()
		if err := cl.Shutdown(); err != nil {
			return err
		}
		return readErr
	})
	if err != nil {
		t.Fatal(err)
	}
	if restored != len(wanted) {
		t.Fatalf("restored %d panes, want %d", restored, len(wanted))
	}
}

// TestSerialRestartIssuesSerialFSOps pins the inline read engine to the
// paper's serial restart: with ParallelRead off, each planned file is
// opened once and read with one ReadAt per coalesced run — no chunk split —
// and no file is Stat'ed for a budget cost. Without the catalog the files'
// directories are read first (the clients' pane universe, the server's
// rebuilt catalog), then the same one Open and one ReadAt per run. The
// clients restore every other pane, so each file's plan has gaps and
// several runs.
func TestSerialRestartIssuesSerialFSOps(t *testing.T) {
	raw := rt.NewMemFS()
	writeSnapshot(t, raw, "so/s", 4, 2, 3)
	cat, err := catalog.Load(raw, "so/s")
	if err != nil {
		t.Fatal(err)
	}
	wanted := make(map[int]bool)
	for i, id := range cat.Panes("fluid") {
		if i%2 == 0 {
			wanted[id] = true
		}
	}
	wantReads := make(map[string]int)
	wantRuns := make(map[string][]catalog.Run)
	for _, plan := range cat.PlanReads("fluid", wanted) {
		wantRuns[plan.File] = catalog.Coalesce(plan.Entries, 0)
		wantReads[plan.File] = len(wantRuns[plan.File])
		if wantReads[plan.File] < 2 {
			t.Fatalf("%s: plan coalesces to %d run, want gaps", plan.File, wantReads[plan.File])
		}
	}
	if len(wantReads) != 2 {
		t.Fatalf("planned files %v, want the 2 writers' files", wantReads)
	}

	fs := newCountingFS(raw)
	restartSome(t, fs, "so/s", wanted)
	for name, runs := range wantReads {
		if fs.opens[name] != 1 || fs.reads[name] != runs {
			t.Errorf("%s: %d opens, %d ReadAts; want 1 open and %d (one per coalesced run)", name, fs.opens[name], fs.reads[name], runs)
		}
	}
	if len(fs.opens) != len(wantReads) {
		t.Errorf("opened %v, want only the planned files %v", fs.opens, wantReads)
	}
	if fs.stats != 0 {
		t.Errorf("indexed serial restart issued %d Stat calls, want 0", fs.stats)
	}

	// Without the catalog: directory reads, then the planned reads.
	if err := raw.Remove("so/s" + catalog.Suffix); err != nil {
		t.Fatal(err)
	}
	fs = newCountingFS(raw)
	restartSome(t, fs, "so/s", wanted)
	for name, runs := range wantRuns {
		size, err := raw.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		ops := fs.ops[name]
		tail := len(ops) - len(runs) - 1
		if tail < 1 || ops[tail].n >= 0 {
			t.Fatalf("%s: ops %v do not end in one Open and %d ReadAts after directory reads", name, ops, len(runs))
		}
		for i, run := range runs {
			if op := ops[tail+1+i]; op.off != run.Offset || op.n != run.Length {
				t.Errorf("%s: planned ReadAt %d read [%d,+%d), want run [%d,+%d)", name, i, op.off, op.n, run.Offset, run.Length)
			}
		}
		dirReads := 0
		for _, op := range ops[:tail] {
			switch {
			case op.n < 0: // the directory walk's own Open
			case op.off == 0 || op.off+op.n == size: // header, directory
				dirReads++
			default:
				t.Errorf("%s: payload ReadAt [%d,+%d) before the planned reads", name, op.off, op.n)
			}
		}
		if dirReads == 0 {
			t.Errorf("%s: no directory read before the planned reads (ops %v)", name, ops)
		}
	}
	if fs.stats != 0 {
		t.Errorf("rebuilt-catalog serial restart issued %d Stat calls, want 0", fs.stats)
	}
}
