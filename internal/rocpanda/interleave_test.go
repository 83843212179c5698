package rocpanda

// Cross-engine interleaving e2e: the scheduler's headline property is that
// a server's iosched instances are independent — a restart read round is
// admitted and served while the drain instance is still writing back a
// later generation. This test runs exactly that shape on the channel
// backend (real goroutines, wall clock) and is part of the CI -race suite.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"genxio/internal/catalog"
	"genxio/internal/hdf"
	"genxio/internal/metrics"
	"genxio/internal/mpi"
	"genxio/internal/roccom"
	"genxio/internal/rt"
)

// slowFS widens every file's read and write on the wall clock so
// background engine work has real duration: the drain of a generation
// stays in flight long enough for a restart round to land inside it, and
// every task span has T1 > T0 so overlap accounting sees nonzero seconds.
type slowFS struct {
	rt.FS
	write, read   time.Duration
	writes, reads atomic.Int64 // call counts, for the test's log line
}

func (s *slowFS) Create(name string) (rt.File, error) {
	f, err := s.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &slowFile{File: f, fs: s}, nil
}

func (s *slowFS) Open(name string) (rt.File, error) {
	f, err := s.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &slowFile{File: f, fs: s}, nil
}

type slowFile struct {
	rt.File
	fs *slowFS
}

func (f *slowFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.writes.Add(1)
	if f.fs.write > 0 {
		time.Sleep(f.fs.write)
	}
	return f.File.WriteAt(p, off)
}

func (f *slowFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.reads.Add(1)
	if f.fs.read > 0 {
		time.Sleep(f.fs.read)
	}
	return f.File.ReadAt(p, off)
}

// TestCrossEngineInterleavedRestartRead restarts committed generation A
// while generation B is still async-draining on the same server, and pins
// the scheduler contract for that shape:
//
//   - the restored state is bit-exact (generation A's values, untouched by
//     the in-flight B drain);
//   - the read round was NOT serialized behind the drain: write-class
//     tasks are still completing after the restart read returned;
//   - both engines report nonzero overlap on the unified metrics — the
//     drain's write class (work behind the application's back) and the
//     restart share's read class (disk time behind the round's shipping).
//
// A was written by two servers with big panes, each planned file spanning
// at least two read chunks, and is restored by one server with its
// catalog deleted (so the servers rebuild it from the files' directories):
// that server's share is both planned files, and the pool ships the first
// while chunks of the second are still on disk, which is what makes the
// read-side overlap nonzero.
func TestCrossEngineInterleavedRestartRead(t *testing.T) {
	const nodes = 30000 // ~1 MB per pane: every planned file spans >= 2 chunks
	fs := &slowFS{FS: rt.NewMemFS(), write: 5 * time.Millisecond, read: 5 * time.Millisecond}
	raw := fs.FS

	// Generation A: two clients, two servers, R=2, committed.
	world := mpi.NewChanWorld(raw, 1)
	err := world.Run(4, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, Config{NumServers: 2, Profile: hdf.NullProfile(), ActiveBuffering: true, ReplicationFactor: 2})
		if err != nil || cl == nil {
			return err
		}
		if err := cl.WriteAttribute("icx/A", buildWindowNodes(t, cl.Comm().Rank(), 2, nodes), "all", 1.0, 1); err != nil {
			return err
		}
		if err := cl.Sync(); err != nil {
			return err
		}
		return cl.Shutdown()
	})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.Load(raw, "icx/A")
	if err != nil {
		t.Fatal(err)
	}
	all := make(map[int]bool)
	for _, id := range cat.Panes("fluid") {
		all[id] = true
	}
	plans := cat.PlanReads("fluid", all)
	if len(plans) != 2 {
		t.Fatalf("A plans %d files, want the 2 primaries", len(plans))
	}
	for _, plan := range plans {
		var n int64
		for _, run := range catalog.Coalesce(plan.Entries, 0) {
			n += run.Length
		}
		if n <= readChunkBytes {
			t.Fatalf("%s: planned %d bytes, want more than one %d-byte read chunk", plan.File, n, readChunkBytes)
		}
	}
	// Deleting the catalog puts the restart below on a rebuilt one.
	if err := raw.Remove("icx/A" + catalog.Suffix); err != nil {
		t.Fatal(err)
	}

	reg := metrics.New()
	// Written on the client goroutines; world.Run's wait is the
	// happens-before edge to the assertions below.
	var mu sync.Mutex
	var tasksMidRead, overlapBeforeB, overlapMidRead = int64(-1), -1.0, 0.0
	world = mpi.NewChanWorld(fs, 1)
	err = world.Run(3, func(ctx mpi.Ctx) error {
		cl, err := Init(ctx, Config{
			NumServers:        1,
			Profile:           hdf.NullProfile(),
			ActiveBuffering:   true,
			AsyncDrain:        true,
			DrainWriters:      2,
			ParallelRead:      true,
			ReadWorkers:       2,
			ReplicationFactor: 2,
			Metrics:           reg,
		})
		if err != nil || cl == nil {
			return err
		}
		rank := cl.Comm().Rank()
		if rank == 0 {
			mu.Lock()
			overlapBeforeB = reg.Snapshot().Histograms["iosched.write.overlap_seconds"].Sum
			mu.Unlock()
		}
		cl.Comm().Barrier()
		// Generation B: buffered and enqueued on the drain engine, NOT
		// synced — at 5 ms per file write it is still draining when the
		// read round below runs.
		w := buildWindow(t, rank, 6)
		w.EachPane(func(p *roccom.Pane) {
			pr, _ := p.Array("pressure")
			for i := range pr.F64 {
				pr.F64[i] += 1000
			}
		})
		if err := cl.WriteAttribute("icx/B", w, "all", 2.0, 2); err != nil {
			return err
		}
		// Restart read of committed A while B drains. A committed
		// generation needs no flush barrier (serveRead), so the round is
		// admitted immediately on the read instance.
		w2 := zeroed(buildWindowNodes(t, rank, 2, nodes))
		if err := cl.ReadAttribute("icx/A", w2, "all"); err != nil {
			return err
		}
		mid := reg.Snapshot()
		mu.Lock()
		if tasksMidRead < 0 || mid.Counters["iosched.write.tasks"] < tasksMidRead {
			tasksMidRead = mid.Counters["iosched.write.tasks"]
			overlapMidRead = mid.Histograms["iosched.write.overlap_seconds"].Sum
		}
		mu.Unlock()
		if err := checkWindow(rank, w2); err != nil {
			return err
		}
		if err := cl.Sync(); err != nil {
			return err
		}
		return cl.Shutdown()
	})
	if err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	t.Logf("write tasks mid-read=%d end=%d; write overlap beforeB=%.4fs mid=%.4fs end=%.4fs; read tasks=%d overlap=%.4fs",
		tasksMidRead, snap.Counters["iosched.write.tasks"],
		overlapBeforeB, overlapMidRead, snap.Histograms["iosched.write.overlap_seconds"].Sum,
		snap.Counters["iosched.read.tasks"], snap.Histograms["iosched.read.overlap_seconds"].Sum)
	t.Logf("slowFS calls: %d writes, %d reads", fs.writes.Load(), fs.reads.Load())
	// The drain outlived the read: B's write-class tasks kept completing
	// after the restart returned — the read was not serialized behind the
	// drain queue.
	if end := snap.Counters["iosched.write.tasks"]; tasksMidRead >= end {
		t.Fatalf("write-class tasks at read completion = %d, at shutdown = %d; the drain finished before the read, no interleaving", tasksMidRead, end)
	}
	// And the read ran inside the drain, not before it: write-class
	// overlap accrued while the restart round was in flight (B's blocks
	// completing outside any flush barrier).
	if overlapMidRead <= overlapBeforeB {
		t.Fatalf("write-class overlap did not grow during the read: %.6fs -> %.6fs", overlapBeforeB, overlapMidRead)
	}
	// The restart rebuilt the deleted catalog and read both planned files
	// in chunks.
	if n := snap.Counters["rocpanda.restart.catalog_fallbacks"]; n == 0 {
		t.Fatal("restart did not rebuild the deleted catalog")
	}
	if n := snap.Counters["iosched.read.tasks"]; n < 4 {
		t.Fatalf("read-class tasks = %d, want >= 4 (two files, >= 2 chunks each)", n)
	}
	// Both engines overlapped: drain work behind the application's back,
	// and chunk reads behind the round's first ship.
	if ov := snap.Histograms["iosched.write.overlap_seconds"]; ov.Count == 0 || ov.Sum <= 0 {
		t.Fatalf("no write-class overlap recorded: %+v", ov)
	}
	if ov := snap.Histograms["iosched.read.overlap_seconds"]; ov.Count == 0 || ov.Sum <= 0 {
		t.Fatalf("no read-class overlap recorded: %+v", ov)
	}
}
