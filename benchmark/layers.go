package main

// Per-layer spans recorded from outside the I/O stack. The benchmark hands
// rocman.Run a wrapped mpi.Ctx: Clock passes through unchanged (the
// simulated platform type-asserts it), while the world communicator, every
// communicator Split returns, the rank's filesystem view and the
// filesystem view of every task the rank spawns record one span per call.
// The program itself is unchanged; a span's parent phase is resolved after
// the job from the program's own phase recorder (see perlayer.go).

import (
	"sync"
	"time"

	"genxio/internal/mpi"
	"genxio/internal/rt"
)

// Layers a span can belong to.
const (
	layerFS   uint8 = iota // rt.FS / rt.File calls: fssim or rt.MemFS
	layerComm              // mpi.Comm calls: cluster network or ChanWorld
)

// Operations within a layer; names index opNames.
const (
	opMeta uint8 = iota // FS: create, open, remove, rename, list, stat, size, truncate, close
	opWrite
	opRead
	opSend // Comm
	opRecv
	opProbe
	opIprobe
	opCollective // Comm: barrier, bcast, gather, allreduce, split
	numOps
)

var opNames = [numOps]string{"meta", "write", "read", "send", "recv", "probe", "iprobe", "collective"}

// span is one call into a layer. Virtual times are on the calling
// activity's own clock (virtual on simulated platforms, wall time on
// ChanWorld); host times are nanoseconds since the tracer started.
type span struct {
	layer  uint8
	op     uint8
	rank   int32 // global rank
	task   int32 // 0: the rank's main activity; >0: a task it spawned
	v0, v1 float64
	h0, h1 int64
	bytes  int64
}

// rankInfo is what the tracer learns about one global rank.
type rankInfo struct {
	// color and subRank come from the rank's first Split of the world
	// communicator. Rocpanda splits clients (color 0) from servers
	// (color 1), keyed by world rank, so subRank is the rank's row in the
	// program's phase recorder (servers after all clients).
	color, subRank, subSize int
	split                   bool
	// v0, v1 bound the rank's main function on its clock.
	v0, v1 float64
	tasks  int32
}

// tracer collects spans for one job.
type tracer struct {
	start time.Time

	mu    sync.Mutex
	spans []span
	ranks map[int]*rankInfo
}

func newTracer() *tracer {
	return &tracer{start: time.Now(), ranks: make(map[int]*rankInfo)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.start)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) info(rank int) *rankInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	ri := t.ranks[rank]
	if ri == nil {
		ri = &rankInfo{}
		t.ranks[rank] = ri
	}
	return ri
}

// wrapMain wraps a rank main function so that it receives a traced Ctx and
// its start and end on the rank's clock are recorded.
func (t *tracer) wrapMain(main func(mpi.Ctx) error) func(mpi.Ctx) error {
	if t == nil {
		return main
	}
	return func(ctx mpi.Ctx) error {
		rank := ctx.Comm().Global()
		ri := t.info(rank)
		ri.v0 = ctx.Clock().Now()
		tc := &tracedCtx{Ctx: ctx, t: t, rank: int32(rank), info: ri}
		tc.comm = &tracedComm{inner: ctx.Comm(), t: t, rank: int32(rank), clock: ctx.Clock(), world: true, info: ri}
		err := main(tc)
		ri.v1 = ctx.Clock().Now()
		return err
	}
}

// tracedCtx is the mpi.Ctx handed to a rank under tracing.
type tracedCtx struct {
	mpi.Ctx
	t    *tracer
	rank int32
	info *rankInfo
	comm *tracedComm
	fs   rt.FS
}

func (c *tracedCtx) Comm() mpi.Comm { return c.comm }

func (c *tracedCtx) FS() rt.FS {
	if c.fs == nil {
		c.fs = &tracedFS{inner: c.Ctx.FS(), t: c.t, rank: c.rank, clock: c.Ctx.Clock()}
	}
	return c.fs
}

// Spawn wraps the task's filesystem view; the task keeps its own clock.
func (c *tracedCtx) Spawn(name string, fn func(rt.TaskCtx)) {
	c.info.tasks++
	task := c.info.tasks
	c.Ctx.Spawn(name, func(tc rt.TaskCtx) {
		fn(&tracedTask{TaskCtx: tc, fs: &tracedFS{inner: tc.FS(), t: c.t, rank: c.rank, task: task, clock: tc.Clock()}})
	})
}

type tracedTask struct {
	rt.TaskCtx
	fs rt.FS
}

func (t *tracedTask) FS() rt.FS { return t.fs }

// tracedComm records every communicator call of one rank.
type tracedComm struct {
	inner mpi.Comm
	t     *tracer
	rank  int32
	clock rt.Clock
	world bool // the world communicator: its first Split reveals the rank's role
	info  *rankInfo
}

func (c *tracedComm) begin() (float64, int64) { return c.clock.Now(), c.t.now() }

func (c *tracedComm) end(op uint8, v0 float64, h0 int64, bytes int) {
	c.t.add(span{layer: layerComm, op: op, rank: c.rank, v0: v0, v1: c.clock.Now(), h0: h0, h1: c.t.now(), bytes: int64(bytes)})
}

func (c *tracedComm) Rank() int   { return c.inner.Rank() }
func (c *tracedComm) Size() int   { return c.inner.Size() }
func (c *tracedComm) Global() int { return c.inner.Global() }

func (c *tracedComm) Send(dst, tag int, data []byte) {
	v0, h0 := c.begin()
	c.inner.Send(dst, tag, data)
	c.end(opSend, v0, h0, len(data))
}

func (c *tracedComm) Recv(src, tag int) ([]byte, mpi.Status) {
	v0, h0 := c.begin()
	data, st := c.inner.Recv(src, tag)
	c.end(opRecv, v0, h0, len(data))
	return data, st
}

func (c *tracedComm) Probe(src, tag int) mpi.Status {
	v0, h0 := c.begin()
	st := c.inner.Probe(src, tag)
	c.end(opProbe, v0, h0, 0)
	return st
}

func (c *tracedComm) Iprobe(src, tag int) (mpi.Status, bool) {
	v0, h0 := c.begin()
	st, ok := c.inner.Iprobe(src, tag)
	c.end(opIprobe, v0, h0, 0)
	return st, ok
}

func (c *tracedComm) Split(color, key int) mpi.Comm {
	v0, h0 := c.begin()
	sub := c.inner.Split(color, key)
	c.end(opCollective, v0, h0, 0)
	if c.world && !c.info.split {
		c.info.split = true
		c.info.color = color
		if sub != nil {
			c.info.subRank, c.info.subSize = sub.Rank(), sub.Size()
		}
	}
	if sub == nil {
		return nil
	}
	return &tracedComm{inner: sub, t: c.t, rank: c.rank, clock: c.clock, info: c.info}
}

func (c *tracedComm) Barrier() {
	v0, h0 := c.begin()
	c.inner.Barrier()
	c.end(opCollective, v0, h0, 0)
}

func (c *tracedComm) Bcast(root int, data []byte) []byte {
	v0, h0 := c.begin()
	out := c.inner.Bcast(root, data)
	c.end(opCollective, v0, h0, len(out))
	return out
}

func (c *tracedComm) Gather(root int, data []byte) [][]byte {
	v0, h0 := c.begin()
	out := c.inner.Gather(root, data)
	c.end(opCollective, v0, h0, len(data))
	return out
}

func (c *tracedComm) AllreduceSum(x float64) float64 {
	v0, h0 := c.begin()
	y := c.inner.AllreduceSum(x)
	c.end(opCollective, v0, h0, 0)
	return y
}

func (c *tracedComm) AllreduceMax(x float64) float64 {
	v0, h0 := c.begin()
	y := c.inner.AllreduceMax(x)
	c.end(opCollective, v0, h0, 0)
	return y
}

func (c *tracedComm) AllreduceMin(x float64) float64 {
	v0, h0 := c.begin()
	y := c.inner.AllreduceMin(x)
	c.end(opCollective, v0, h0, 0)
	return y
}

// tracedFS records every filesystem call of one activity.
type tracedFS struct {
	inner rt.FS
	t     *tracer
	rank  int32
	task  int32
	clock rt.Clock
}

func (f *tracedFS) begin() (float64, int64) { return f.clock.Now(), f.t.now() }

func (f *tracedFS) end(op uint8, v0 float64, h0 int64, bytes int) {
	f.t.add(span{layer: layerFS, op: op, rank: f.rank, task: f.task, v0: v0, v1: f.clock.Now(), h0: h0, h1: f.t.now(), bytes: int64(bytes)})
}

func (f *tracedFS) file(file rt.File, err error) (rt.File, error) {
	if err != nil {
		return nil, err
	}
	return &tracedFile{inner: file, fs: f}, nil
}

func (f *tracedFS) Create(name string) (rt.File, error) {
	v0, h0 := f.begin()
	file, err := f.inner.Create(name)
	f.end(opMeta, v0, h0, 0)
	return f.file(file, err)
}

func (f *tracedFS) Open(name string) (rt.File, error) {
	v0, h0 := f.begin()
	file, err := f.inner.Open(name)
	f.end(opMeta, v0, h0, 0)
	return f.file(file, err)
}

func (f *tracedFS) Remove(name string) error {
	v0, h0 := f.begin()
	err := f.inner.Remove(name)
	f.end(opMeta, v0, h0, 0)
	return err
}

func (f *tracedFS) Rename(oldname, newname string) error {
	v0, h0 := f.begin()
	err := f.inner.Rename(oldname, newname)
	f.end(opMeta, v0, h0, 0)
	return err
}

func (f *tracedFS) List(prefix string) ([]string, error) {
	v0, h0 := f.begin()
	names, err := f.inner.List(prefix)
	f.end(opMeta, v0, h0, 0)
	return names, err
}

func (f *tracedFS) Stat(name string) (int64, error) {
	v0, h0 := f.begin()
	n, err := f.inner.Stat(name)
	f.end(opMeta, v0, h0, 0)
	return n, err
}

type tracedFile struct {
	inner rt.File
	fs    *tracedFS
}

func (f *tracedFile) Name() string { return f.inner.Name() }

func (f *tracedFile) ReadAt(p []byte, off int64) (int, error) {
	v0, h0 := f.fs.begin()
	n, err := f.inner.ReadAt(p, off)
	f.fs.end(opRead, v0, h0, n)
	return n, err
}

func (f *tracedFile) WriteAt(p []byte, off int64) (int, error) {
	v0, h0 := f.fs.begin()
	n, err := f.inner.WriteAt(p, off)
	f.fs.end(opWrite, v0, h0, n)
	return n, err
}

func (f *tracedFile) Size() (int64, error) {
	v0, h0 := f.fs.begin()
	n, err := f.inner.Size()
	f.fs.end(opMeta, v0, h0, 0)
	return n, err
}

func (f *tracedFile) Truncate(size int64) error {
	v0, h0 := f.fs.begin()
	err := f.inner.Truncate(size)
	f.fs.end(opMeta, v0, h0, 0)
	return err
}

func (f *tracedFile) Close() error {
	v0, h0 := f.fs.begin()
	err := f.inner.Close()
	f.fs.end(opMeta, v0, h0, 0)
	return err
}
