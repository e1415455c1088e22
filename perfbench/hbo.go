package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/mnm-model/mnm/internal/benor"
	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/graph"
	"github.com/mnm-model/mnm/internal/hbo"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/rt"
	"github.com/mnm-model/mnm/internal/transport"
)

const (
	hboN = 3
	// hboLinkGroup is the long-lived two-process group that brings the
	// connections up; instances use fresh ids above it, so a late frame
	// of a finished instance can never reach a later one.
	hboLinkGroup = 1
	// hboInstanceTimeout bounds one instance, start to last decision.
	hboInstanceTimeout = 10 * time.Second
)

// hboNode is the node hosting process p: 0 and 1 on node A, 2 on node B.
func hboNode(p core.ProcID) int {
	if p == 2 {
		return 1
	}
	return 0
}

// checkDecisions verifies one instance: every process decided, all on
// the same value, and that value is one of the inputs.
func checkDecisions(inputs []benor.Val, decisions []core.Value) error {
	var first benor.Val
	for p, d := range decisions {
		v, ok := d.(benor.Val)
		if !ok {
			return fmt.Errorf("p%d decided %v (%T)", p, d, d)
		}
		if p == 0 {
			first = v
		} else if v != first {
			return fmt.Errorf("split decision: p0 decided %v, p%d decided %v", first, p, v)
		}
	}
	for _, in := range inputs {
		if in == first {
			return nil
		}
	}
	return fmt.Errorf("decision %v is none of the inputs %v", first, inputs)
}

// hboFixture is one bring-up of the hbo workload: two rt nodes with the
// connections up; each instance opens its own groups on them.
type hboFixture struct {
	m    *mesh
	next transport.GroupID
}

// hboInstance is the outcome of one instance.
type hboInstance struct {
	latency time.Duration // OpenGroup on both nodes to Stop on both
	decide  time.Duration // Start to last decision (traced only)
	steps   int64
	msgs    int64
	rounds  int64
	err     error
}

var hboGSM = graph.Complete(hboN)

// instance runs one Hybrid Ben-Or instance to completion: OpenGroup on
// both nodes, Start, wait until every process has decided and returned,
// Stop.
func (f *hboFixture) instance(rng *rand.Rand, rec *recorder) hboInstance {
	var out hboInstance
	id := f.next
	f.next++
	inputs := make([]benor.Val, hboN)
	for p := range inputs {
		inputs[p] = benor.Val(rng.Intn(2))
	}
	seed := rng.Int63()
	var alg core.Algorithm = hbo.New(hbo.Config{Inputs: inputs, HaltAfterDecide: true})
	var decidedAt [hboN]time.Time
	if rec != nil {
		alg = traceAlg(alg, rec, id, func(self, owner core.ProcID) bool { return hboNode(self) != hboNode(owner) })
		alg = stampDecisions(alg, decidedAt[:])
	}

	t0 := time.Now()
	var groups [2]*rt.Group
	var regs [2]*metrics.Registry
	for i, nd := range f.m.nodes {
		regs[i] = metrics.NewRegistry(hboN)
		g, err := nd.OpenGroup(id, rt.GroupConfig{RunConfig: rt.RunConfig{GSM: hboGSM, Seed: seed}, Registry: regs[i]}, alg)
		if err != nil {
			stopGroups(groups[:i], nil)
			out.err = fmt.Errorf("instance %d: open on node %d: %w", id, i, err)
			return out
		}
		groups[i] = g
	}
	t1 := time.Now()
	for _, g := range groups {
		g.Start()
	}
	for i, g := range groups {
		if err := waitGroup(g, hboInstanceTimeout); err != nil && out.err == nil {
			out.err = fmt.Errorf("instance %d: node %d: %w", id, i, err)
		}
	}
	var decisions []core.Value
	for p := core.ProcID(0); p < hboN; p++ {
		g := groups[hboNode(p)]
		decisions = append(decisions, g.Exposed(p, hbo.DecisionKey))
		if r, ok := g.Exposed(p, hbo.RoundKey).(int); ok && int64(r) > out.rounds {
			out.rounds = int64(r)
		}
	}
	t2 := time.Now()
	for _, g := range groups {
		out.steps += int64(g.Stop().Steps)
	}
	out.latency = time.Since(t0)
	if rec != nil {
		rec.interval(lOpen, t1.Sub(t0))
		rec.interval(lStop, time.Since(t2))
		last := t1
		for _, at := range decidedAt {
			if at.After(last) {
				last = at
			}
		}
		out.decide = last.Sub(t1)
	}
	for _, r := range regs {
		out.msgs += r.Counters().Total(metrics.MsgSent)
	}
	if out.err == nil {
		if err := checkDecisions(inputs, decisions); err != nil {
			out.err = fmt.Errorf("instance %d: %w", id, err)
		}
	}
	return out
}

// stampDecisions records when each process publishes its decision.
func stampDecisions(alg core.Algorithm, at []time.Time) core.Algorithm {
	return core.AlgorithmFunc(func(id core.ProcID) core.Process {
		body := alg.ProcessFor(id)
		return func(env core.Env) error {
			return body(&decisionEnv{Env: env, at: &at[id]})
		}
	})
}

type decisionEnv struct {
	core.Env
	at *time.Time // written by this process only, read after it returns
}

func (e *decisionEnv) Expose(name string, v core.Value) {
	if name == hbo.DecisionKey && e.at.IsZero() {
		*e.at = time.Now()
	}
	e.Env.Expose(name, v)
}

func runHBO(o phaseOpts) (*phaseResult, error) {
	res := &phaseResult{lat: newReservoir(latencySamples, o.seed)}
	build := func() (*hboFixture, time.Duration, error) {
		t0 := time.Now()
		m, err := newMesh(meshOpts{nodes: true, rec: o.rec, flight: o.flight,
			layout: func(a, b string) []string { return []string{a, a, b} }})
		if err != nil {
			return nil, 0, err
		}
		views, err := m.openLinkGroup(hboLinkGroup, nil)
		if err != nil {
			m.close()
			return nil, 0, err
		}
		if err := awaitLinks([]link{{views[0], 0, 1}, {views[1], 1, 0}}); err != nil {
			m.close()
			return nil, 0, err
		}
		return &hboFixture{m: m, next: hboLinkGroup + 1}, time.Since(t0), nil
	}
	f, setups, err := bringUps(o, build, func(f *hboFixture) error { return f.m.close() })
	if err != nil {
		return nil, err
	}
	res.setup = setups
	defer f.m.close()

	rng := rand.New(rand.NewSource(o.seed))
	mt := &meter{nodes: f.m.regs[:], rec: o.rec}
	warmEnd := time.Now().Add(o.warm)
	end := warmEnd.Add(o.dur)
	measuring := false
	for {
		now := time.Now()
		if !measuring && !now.Before(warmEnd) {
			measuring = true
			mt.start()
			res.slots.begin(now)
		}
		if measuring && !now.Before(end) {
			res.slots.end(now)
			mt.stop(res)
			return res, nil
		}
		in := f.instance(rng, o.rec)
		res.attempted++
		if in.err != nil {
			res.fail("%v", in.err)
		}
		if measuring {
			res.ops++
			res.lat.add(in.latency)
			res.slots.add(in.latency)
			res.slots.tick(time.Now())
			res.steps += in.steps
			res.msgs += in.msgs
			res.rounds += in.rounds
			if in.decide > 0 {
				res.decide += in.decide
				res.decided++
			}
		}
	}
}
