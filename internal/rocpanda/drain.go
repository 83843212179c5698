package rocpanda

// The drain engine: every server's one path from buffered blocks to
// snapshot files, as a ClassWrite adapter over internal/iosched. The
// engine's width is the drain policy:
//
//   - Inline (the paper's active buffering, Section 6.1). With
//     ActiveBuffering and no AsyncDrain the engine has no workers: blocks
//     queue in its FIFO and the request loop runs them one at a time
//     between non-blocking probes (server.run). BufferBudgetBytes bounds
//     the FIFO: a block that overruns it stalls the loop, delaying that
//     client's ack, while the oldest blocks are written out right there —
//     the paper's graceful overflow.
//   - Write-through (ActiveBuffering off) is the inline engine with a
//     one-byte budget: every block is on disk before its ack.
//   - Background (AsyncDrain). A pool of DrainWriters writer tasks
//     (real goroutines on the channel backend, simulation processes with
//     their own clock and filesystem view on the virtual platforms)
//     continuously empties a bounded queue while the request loop keeps
//     absorbing client writes; BufferBudgetBytes becomes the bytes in
//     flight to the pool, and an overrun stalls the loop on completion
//     signals — no sleep-polling.
//
// Ordering and bit-exactness: a block's task key is its destination file,
// so the scheduler's keyed-ordering invariant (same key => same worker, in
// submission order) gives each file its blocks in exactly the arrival
// order the inline drain uses — the output files are byte-identical
// across the three policies.
//
// Commit safety: flushOutput (the barrier behind Sync, restart reads and
// shutdown) is iosched.Flush: every queued block is written, every file
// closed, and the sticky error returned. Only then may a client write the
// generation's manifest, so crash consistency, catalog publication and
// generation fallback are the same for every policy.
//
// Faults: the crash points fire where the block is written (MidDrain via
// a fatal task result, BeforeMeta via the sink's panic) — on the server
// itself when inline, on the writer task in the pool — and a file error
// reaches the client-side allreduce through the flush (see client.Sync).

import (
	"genxio/internal/faults"
	"genxio/internal/iosched"
	"genxio/internal/rt"
	"genxio/internal/trace"
)

const (
	// maxDrainWriters caps Config.DrainWriters.
	maxDrainWriters = 8
	// drainQueueCap is each writer's job-queue capacity in blocks; the
	// byte budget, not this bound, is the intended flow control.
	drainQueueCap = 4096
)

// drainState is a drain task's iosched.WorkerState: a blockSink with the
// clock identity and filesystem view of whoever runs the task (the server
// inline, a writer in the pool). Its files stay open (staged temporaries)
// if the server dies to an injected crash, as a real process death would
// leave them.
type drainState struct{ sink *blockSink }

// Flush implements iosched.WorkerState: the barrier closes every file.
func (d *drainState) Flush() error { return d.sink.closeAll("") }

// Close implements iosched.WorkerState (never called: the drain engine
// keeps state unclosed on exit, see Config.CloseStateOnExit).
func (d *drainState) Close() error { return nil }

// newDrainEngine builds the server's drain: the scheduler instance for its
// drain policy (spawning the writers of an AsyncDrain pool). Its entry
// points (enqueue, flushOutput, and the request loop's Step) run on the
// server goroutine.
func newDrainEngine(s *server) *iosched.Engine {
	cfg := iosched.Config{
		Name:       "panda-drain",
		MaxWorkers: maxDrainWriters,
		Budget:     s.cfg.BufferBudgetBytes,
		QueueCap:   drainQueueCap,
		Policy:     iosched.Writeback{},
		FlushClass: iosched.ClassWrite,
		NewState: func(wi int, tc rt.TaskCtx) iosched.WorkerState {
			return &drainState{sink: newBlockSink(s, tc.Clock(), tc.FS())}
		},
		// An injected crash point (BeforeMeta inside the sink) panics with
		// serverCrashed; a writer dies with its files unclosed.
		FatalPanic: func(r interface{}) bool { _, died := r.(serverCrashed); return died },
		Metrics:    s.cfg.Metrics,
		OnWorkerDone: func(c iosched.Completion, _ bool) {
			if c.Task != nil {
				s.mx.drainSeconds.Observe(c.T1 - c.T0)
			}
		},
		OnDepth: func(_ int, queued int64) { s.mx.bufBytesPeak.SetMax(float64(queued)) },
		OnWait:  func(iosched.Class) { s.mx.overflowStalls.Inc() },
	}
	switch {
	case !s.cfg.ActiveBuffering:
		cfg.Budget = 1 // write-through
	case s.cfg.AsyncDrain:
		cfg.Workers = max(1, s.cfg.DrainWriters)
		// The writers record every block span on the server's timeline
		// row, including zero-width ones on the virtual platforms. The
		// inline drain records none: it is the server's own time.
		cfg.Trace = s.cfg.Trace
		cfg.TraceRank = s.traceRank()
		cfg.TracePhase = trace.PhaseDrain
		cfg.TraceZeroSpans = true
	}
	return iosched.New(s.ctx, cfg)
}

// enqueue hands one block to the drain, which may stall the request loop
// on the byte budget (writing blocks inline, or waiting for the writers).
func (s *server) enqueue(blk pendingBlock) {
	info := s.drain.Submit(&iosched.Task{
		Class: iosched.ClassWrite,
		Key:   blk.fname,
		Cost:  blk.bytes,
		Run: func(tc rt.TaskCtx, st iosched.WorkerState) iosched.Result {
			err := st.(*drainState).sink.write(blk)
			return iosched.Result{
				Err: err,
				// MidDrain fires after the block lands (and its span and
				// metrics are recorded).
				Fatal: s.cfg.Crash.Hit(s.idx, faults.MidDrain),
			}
		},
	})
	if info.Waited && s.drain.Crashed() {
		panic(serverCrashed{})
	}
}

// flushOutput forces every buffered or queued block to disk and closes the
// snapshot files, returning the server's sticky drain error (nil when all
// output landed): the barrier-before-commit that sync, restart reads and
// shutdown rely on. Panics with serverCrashed if a drain task died to an
// injected crash.
func (s *server) flushOutput() error {
	if s.drain.Crashed() {
		panic(serverCrashed{})
	}
	err := s.drain.Flush()
	if s.drain.Crashed() {
		panic(serverCrashed{})
	}
	return err
}
