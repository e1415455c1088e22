package main

import (
	"fmt"
	"time"

	"github.com/mnm-model/mnm/internal/metrics"
)

// phaseOpts configures one measured phase of a workload: a number of
// timed bring-ups (all but the last torn down), a warm-up, and a timed
// window on the surviving cluster, followed by the output checks.
type phaseOpts struct {
	seed    int64
	setups  int           // bring-ups to time; the last one is measured
	warm    time.Duration // untimed load before the window
	dur     time.Duration // the timed window
	rec     *recorder     // non-nil: traced phase
	flight  bool          // rt's own trace.Flight on
	scratch string        // directory for WAL stores
}

// phaseResult is what a phase measured.
type phaseResult struct {
	ops       int64 // completed operations in the window
	attempted int64 // operations issued, warm-up included
	failed    int64 // failed operations plus failed output checks
	lat       *reservoir
	slots     slotter
	win       window
	regs      regSnap // change of the program's counters over the window
	setup     []time.Duration
	steps     int64 // rt steps taken in the window

	// Per-instance aggregates of the hbo workload, over the window.
	rounds, msgs int64
	decide       time.Duration // Start to last decision, summed (traced)
	decided      int64         // instances with a decide_us sample

	// Receive loop of the stream workload.
	polls, empties int64

	problems []string // first few check failures, for the log
}

func (r *phaseResult) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// meter brackets the timed window: process resources plus the program's
// own counters.
type meter struct {
	nodes []*metrics.Registry
	store *metrics.Registry
	rec   *recorder

	p0   procSnap
	r0   regSnap
	done bool
}

func (m *meter) start() {
	m.r0 = snapRegs(m.nodes, m.store, m.rec)
	m.p0 = takeSnap()
}

func (m *meter) stop(res *phaseResult) {
	p1 := takeSnap()
	res.win = between(m.p0, p1)
	res.regs = snapRegs(m.nodes, m.store, m.rec).sub(m.r0)
	m.done = true
}

// bringUps times o.setups bring-ups with build and returns the last one;
// the others are torn down with closeFn as soon as they are timed.
func bringUps[F any](o phaseOpts, build func() (F, time.Duration, error), closeFn func(F) error) (F, []time.Duration, error) {
	n := o.setups
	if n < 1 {
		n = 1
	}
	var times []time.Duration
	for i := 0; ; i++ {
		fx, d, err := build()
		if err != nil {
			return fx, nil, fmt.Errorf("bring-up %d: %w", i, err)
		}
		times = append(times, d)
		if i == n-1 {
			return fx, times, nil
		}
		if err := closeFn(fx); err != nil {
			return fx, nil, fmt.Errorf("tear-down %d: %w", i, err)
		}
	}
}
