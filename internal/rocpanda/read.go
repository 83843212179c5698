package rocpanda

// The restart read engine: every server's one path from its share of a
// restart round's files to the clients, as a ClassRead adapter over
// internal/iosched (the read-side twin of the drain engine, drain.go).
// A round's share is a list of catalog-planned files (serveShare): each
// file's wanted entries, coalesced into runs and read at their offsets. It
// becomes one batch of tasks. The engine's width is the read policy:
//
//   - Serial (the paper's restart, Section 4.1; ParallelRead off). The
//     engine is inline: each file is one task run on the server itself,
//     in plan order, each followed by its verification and shipping. The
//     task opens the file and reads each coalesced run with one ReadAt;
//     the server closes it once its panes shipped or it was skipped. These
//     are the serial restart's FS operations, in its order.
//   - Parallel (ParallelRead). A pool of ReadWorkers (ctx.Spawn: real
//     goroutines on the channel backend, simulation processes with their
//     own clock and filesystem view on the virtual platforms) reads the
//     share concurrently, with disk reads of one file pipelined against
//     the network shipping of another.
//
// Division of labor: tasks do disk I/O only — they fill preallocated run
// buffers with ReadAt — and report results as task completions. The server
// goroutine does everything else: CRC verification, inflate, pane
// assembly, and every network send (simulated endpoints charge the sending
// process, so shipping must stay on the server's own identity). In the
// pool, reads of file N+1 therefore overlap the verification and shipping
// of file N, which is the pipelining the pool exists for.
//
// Granularity: the pool splits coalesced runs into readChunkBytes chunks,
// so even a single large snapshot file spreads across the whole pool. On
// the simulated NFS platforms each worker process has its own stream-read
// pacing, so the chunks of one file genuinely overlap — this, not
// file-level fan-out, is where the restart speedup comes from when a
// server's share is one big file.
//
// Ordering and dedupe compatibility: within one file, entries ship in plan
// order in both modes; across files, the pool's completion order may
// differ from the serial plan order, but a pane is planned from exactly
// one file per server and clients dedupe on first arrival (the copies a
// failover may leave in two files are identical), so what a rank restores
// is bit-identical either way. Tasks are unkeyed: the scheduler deals them
// round-robin by submission index, and disjoint chunks need no ordering.
//
// Backpressure: Config.ReadBudgetBytes becomes the pool's budget under the
// RestartRead policy: a task that would overrun the budget is deferred
// until outstanding reads complete, but an idle pool always admits, so
// progress is guaranteed and a one-byte budget degenerates to serial
// reads. Because the budget is this instance's alone, a restart round is
// admitted immediately even while the same server's drain instance is
// still emptying a previous generation's queue.
//
// Failure: a task never panics the process. Open/ReadAt errors and
// damaged payloads mark the file failed; the server skips it whole —
// nothing from a failed file ever ships — accounts the discarded bytes as
// wasted, not read, and retries the file's panes against their other
// copies in the file's own catalog (recoverPanes). An injected MidRead
// crash fires at the end of a task as a fatal result; the server then dies
// as one process, and the clients' stall detection takes over.

import (
	"genxio/internal/catalog"
	"genxio/internal/faults"
	"genxio/internal/iosched"
	"genxio/internal/rt"
	"genxio/internal/trace"
)

const (
	// maxReadWorkers caps Config.ReadWorkers.
	maxReadWorkers = 8
	// defaultReadWorkers is used when ParallelRead is on and ReadWorkers
	// is unset.
	defaultReadWorkers = 4
	// readChunkBytes splits coalesced runs into pool-sized chunks (pool
	// only); see the granularity note above.
	readChunkBytes = 512 << 10
)

// readItem is one planned file of a server's restart share and the
// catalog its plan came from — in chain rounds each item carries its own
// generation's catalog, so a failed file's pane retries consult the right
// link's copies.
type readItem struct {
	plan catalog.FilePlan
	cat  *catalog.Catalog
}

// readFile is the server-side state of one file of a restart round.
type readFile struct {
	plan   catalog.FilePlan
	cat    *catalog.Catalog // the catalog the plan came from
	runs   []catalog.Run
	bufs   [][]byte // one buffer per run; tasks fill disjoint windows
	left   int      // outstanding task results for this file
	failed bool
	opened bool
	read   int64 // bytes successfully pulled from the file so far
}

// readResult is one task's outcome, carried as the completion's value (the
// control-queue handoff is also the happens-before edge covering the chunk
// buffer the worker filled).
type readResult struct {
	fi     int
	read   int64 // bytes actually pulled from the file
	opened bool
	failed bool
}

// readHandles is a read task's iosched.WorkerState: its open snapshot
// files. A pool worker caches one handle per file (several workers may
// hold handles on the same file; each reads disjoint chunks) and closes
// them on every exit, crashed or not. The inline engine holds only the
// file its last task read, until consume is done with it (release): the
// serial restart closed each file after shipping or skipping it.
type readHandles struct {
	m    map[string]rt.File
	held rt.File
}

// open returns the file's handle, cached in a pool worker, held inline.
func (h *readHandles) open(fsys rt.FS, name string) (rt.File, error) {
	if f, ok := h.m[name]; ok {
		return f, nil
	}
	f, err := fsys.Open(name)
	if err != nil {
		return nil, err
	}
	if h.m != nil {
		h.m[name] = f
	} else {
		h.held = f
	}
	return f, nil
}

// release closes the held file, if any.
func (h *readHandles) release() {
	if h.held != nil {
		h.held.Close()
		h.held = nil
	}
}

// Flush implements iosched.WorkerState (restart rounds never flush).
func (h *readHandles) Flush() error { return nil }

// Close implements iosched.WorkerState.
func (h *readHandles) Close() error {
	for _, f := range h.m {
		f.Close()
	}
	h.release()
	return nil
}

// readEngine adapts one restart round's share onto internal/iosched. It is
// created per round (restart rounds are rare and bounded, unlike the
// server-lifetime drain engine) and torn down before the round's done
// notifications go out. consume runs on the server goroutine.
type readEngine struct {
	s      *server
	eng    *iosched.Engine
	window string
	round  *readRound

	// Server-goroutine-only state.
	files   []*readFile
	tasks   []*iosched.Task
	serial  *readHandles    // the inline engine's state (empty for a pool)
	bad     map[string]bool // files that failed an open; retries skip them
	shipped bool            // something left this server already (overlap accounting)
}

// newReadEngine builds the round's file states and task list, then the
// scheduler instance (spawning the pool's workers). Each file gets its run
// buffers allocated here, read by one task per file inline or split into
// chunk tasks in the pool.
func newReadEngine(s *server, window string, round *readRound, items []readItem) *readEngine {
	nw := 0
	if s.cfg.ParallelRead {
		nw = s.cfg.ReadWorkers
		if nw <= 0 {
			nw = defaultReadWorkers
		}
		nw = min(nw, maxReadWorkers)
	}
	e := &readEngine{
		s:      s,
		window: window,
		round:  round,
		bad:    make(map[string]bool),
		serial: &readHandles{},
	}
	for _, it := range items {
		fi := len(e.files)
		name := it.plan.File
		f := &readFile{plan: it.plan, cat: it.cat, runs: catalog.Coalesce(it.plan.Entries, 0)}
		f.bufs = make([][]byte, len(f.runs))
		e.files = append(e.files, f)
		var whole []extent
		for ri, run := range f.runs {
			f.bufs[ri] = make([]byte, run.Length)
			if nw == 0 {
				whole = append(whole, extent{run.Offset, f.bufs[ri]})
				continue
			}
			for off := int64(0); off < run.Length; off += readChunkBytes {
				n := min(int64(readChunkBytes), run.Length-off)
				e.tasks = append(e.tasks, e.extentTask(fi, name, []extent{{run.Offset + off, f.bufs[ri][off : off+n]}}))
				f.left++
			}
		}
		if nw == 0 {
			e.tasks = append(e.tasks, e.extentTask(fi, name, whole))
			f.left = 1
		}
	}
	cfg := iosched.Config{
		Name:       "panda-read",
		Workers:    nw,
		MaxWorkers: maxReadWorkers,
		Budget:     s.cfg.ReadBudgetBytes,
		Policy:     iosched.RestartRead{},
		NewState: func(wi int, tc rt.TaskCtx) iosched.WorkerState {
			if nw == 0 {
				return e.serial
			}
			return &readHandles{m: make(map[string]rt.File)}
		},
		CloseStateOnExit: true,
		Metrics:          s.cfg.Metrics,
		Trace:            s.cfg.Trace,
		TraceRank:        s.traceRank(),
		TracePhase:       trace.PhaseRead,
		// Read overlap is not barrier-relative: the adapter counts disk
		// time after the round's first ship (see consume) and reports it
		// with NoteOverlap.
		OverlapExternal: true,
	}
	if nw > 0 {
		// Queues are sized so no Put ever blocks: the scheduler deals
		// unkeyed tasks round-robin by index, and the control queue holds
		// one completion per task plus every exit. A crashed worker that
		// abandons its queue can then never wedge the server mid-Put.
		cfg.QueueCap = len(e.tasks)/nw + 2
		cfg.CtlCap = len(e.tasks) + nw + 4
	}
	e.eng = iosched.New(s.ctx, cfg)
	return e
}

// extent is one contiguous disk read: fill buf from off.
type extent struct {
	off int64
	buf []byte
}

// extentTask builds one task reading extents of one file: a chunk in the
// pool, or all of a file's runs inline.
func (e *readEngine) extentTask(fi int, name string, exts []extent) *iosched.Task {
	var cost int64
	for _, x := range exts {
		cost += int64(len(x.buf))
	}
	return &iosched.Task{
		Class: iosched.ClassRead,
		Cost:  cost,
		Run: func(tc rt.TaskCtx, st iosched.WorkerState) iosched.Result {
			res := readResult{fi: fi}
			f, err := st.(*readHandles).open(tc.FS(), name)
			if err != nil {
				res.failed = true
				return e.finish(res)
			}
			res.opened = true
			for _, x := range exts {
				if _, err := f.ReadAt(x.buf, x.off); err != nil {
					res.failed = true
					break
				}
				res.read += int64(len(x.buf))
			}
			return e.finish(res)
		},
	}
}

// finish wraps a task result, evaluating the injected MidRead crash after
// the work (and before the completion is reported, whose tallies and span
// still land, and whose panes still ship — the server then dies).
func (e *readEngine) finish(res readResult) iosched.Result {
	return iosched.Result{Value: res, Fatal: e.s.cfg.Crash.Hit(e.s.idx, faults.MidRead)}
}

// runReadPool executes one restart round's share through the scheduler.
// Runs on the server goroutine; returns only after every worker has
// exited. If a task hit an injected crash the server process dies with
// it.
func (s *server) runReadPool(window string, round *readRound, items []readItem) {
	if len(items) == 0 {
		return
	}
	e := newReadEngine(s, window, round, items)
	defer e.eng.Close()
	e.eng.RunBatch(e.tasks, e.consume)
	e.eng.Close()
	if e.eng.Crashed() {
		panic(serverCrashed{})
	}
}

// consume folds one task completion into the round: overlap accounting,
// file completion, and — for completed files — verification and shipping.
// Server goroutine only.
func (e *readEngine) consume(c iosched.Completion) {
	s := e.s
	r := c.Result.Value.(readResult)
	f := e.files[r.fi]
	if c.T1 > c.T0 && e.shipped && e.eng.Workers() > 0 {
		// Disk time a worker spent after this round's first pane left the
		// server: reads of later files overlapped earlier files' sends —
		// the pipelining the pool exists for. Inline reads overlap
		// nothing: the server does them between its sends.
		e.eng.NoteOverlap(c.Task.Class, c.T1-c.T0)
	}
	if r.opened && !f.opened {
		f.opened = true
		s.mx.filesOpened.Inc()
	}
	if r.failed {
		f.failed = true
	}
	f.read += r.read
	f.left--
	if f.left > 0 {
		return
	}
	var ships []paneShip
	ok := !f.failed
	if ok {
		var crcFailed bool
		ships, crcFailed, ok = assembleShips(f.plan, f.runs, f.bufs, e.round)
		if crcFailed {
			s.mx.checksumFails.Inc()
		}
	}
	if !ok {
		s.skipFile(f.read)
		e.serial.release()
		e.retry(f)
		return
	}
	s.noteRestartBytes(f.read)
	s.sendShips(ships)
	e.serial.release()
	if len(ships) > 0 {
		e.shipped = true
	}
}

// retry recovers a failed file's panes from their other copies on the
// server goroutine, while the workers keep reading the round's remaining
// files.
func (e *readEngine) retry(f *readFile) {
	e.bad[f.plan.File] = true
	if e.s.recoverPanes(f.cat, e.window, e.round, f.plan, e.bad) > 0 {
		e.shipped = true
	}
}
