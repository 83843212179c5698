package main

import (
	"syscall"
	"time"

	"genxio/internal/mpi"
	"genxio/internal/rt"
)

// cpuSeconds returns the CPU time the process has used so far, user and
// system, over all its threads.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error()) // RUSAGE_SELF cannot fail on Linux
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// cpuClock is an rt.Clock that advances with the process's CPU time. On a
// machine shared with other work a job's wall-clock timings stretch with
// whatever else runs; its CPU time counts only the work done in this
// process, so timings on this clock repeat far better. Sleep and Compute
// behave as on the wall clock.
type cpuClock struct {
	start float64
}

func newCPUClock() *cpuClock { return &cpuClock{start: cpuSeconds()} }

func (c *cpuClock) Now() float64 { return cpuSeconds() - c.start }

func (c *cpuClock) Sleep(d float64) {
	if d > 0 {
		time.Sleep(time.Duration(d * float64(time.Second)))
	}
}

func (c *cpuClock) Compute(float64) {}

// withClock hands every rank, and every task a rank spawns, the clock c in
// place of the world's own.
func withClock(c rt.Clock, main func(mpi.Ctx) error) func(mpi.Ctx) error {
	return func(ctx mpi.Ctx) error { return main(&clockCtx{Ctx: ctx, clock: c}) }
}

type clockCtx struct {
	mpi.Ctx
	clock rt.Clock
}

func (c *clockCtx) Clock() rt.Clock { return c.clock }

func (c *clockCtx) Spawn(name string, fn func(rt.TaskCtx)) {
	c.Ctx.Spawn(name, func(tc rt.TaskCtx) { fn(&clockTask{TaskCtx: tc, clock: c.clock}) })
}

type clockTask struct {
	rt.TaskCtx
	clock rt.Clock
}

func (t *clockTask) Clock() rt.Clock { return t.clock }
