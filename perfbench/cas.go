package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/durable"
	"github.com/mnm-model/mnm/internal/graph"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/rt"
)

const (
	casKeys   = 4096 // registers owned by the process on node B
	casShare  = 5    // one op in casShare is a CAS increment, the rest Reads
	casGroup  = 1
	casClient = core.ProcID(0) // on node A
	casOwner  = core.ProcID(1) // on node B
)

var casRefs = func() []core.Ref {
	refs := make([]core.Ref, casKeys)
	for k := range refs {
		refs[k] = core.RegI(casOwner, "k", k)
	}
	return refs
}()

// casModel is the client's record of every register: the only writer
// knows what each one must hold.
type casModel struct {
	val []int // value last stored per key; 0 = never written (nil)
}

func newCASModel() *casModel { return &casModel{val: make([]int, casKeys)} }

// want returns the register value the model expects for key k.
func (m *casModel) want(k int) core.Value {
	if m.val[k] == 0 {
		return nil
	}
	return m.val[k]
}

// read checks a Read of key k against the model.
func (m *casModel) read(k int, v core.Value) error {
	if !sameValue(v, m.val[k]) {
		return fmt.Errorf("read k%d = %v, last stored %d", k, v, m.val[k])
	}
	return nil
}

// cas folds a CompareAndSwap(k, want, want+1) outcome into the model. A
// CAS that does not swap is an outcome, not a failure; it only fails if
// the current value it reports is not the register's.
func (m *casModel) cas(k int, swapped bool, cur core.Value) error {
	if swapped {
		m.val[k]++
		return nil
	}
	if sameValue(cur, m.val[k]) {
		return fmt.Errorf("cas k%d did not swap although the register holds %d", k, m.val[k])
	}
	n, ok := cur.(int)
	if !ok {
		return fmt.Errorf("cas k%d reported current %v (%T)", k, cur, cur)
	}
	m.val[k] = n
	return nil
}

// verify compares the model with a register store: lookup returns a
// key's stored value and whether the store holds it at all. It returns
// one error per mismatched key.
func (m *casModel) verify(what string, lookup func(k int) (core.Value, bool)) []error {
	var errs []error
	for k := range m.val {
		v, ok := lookup(k)
		if !ok {
			v = nil
		}
		if !sameValue(v, m.val[k]) {
			errs = append(errs, fmt.Errorf("%s k%d = %v, client counted %d increments", what, k, v, m.val[k]))
		}
	}
	return errs
}

// sameValue reports whether register value v equals count n (nil = 0).
func sameValue(v core.Value, n int) bool {
	if v == nil {
		return n == 0
	}
	i, ok := v.(int)
	return ok && i == n
}

// casFixture is one bring-up of the cas workloads: group casGroup with
// the client on node A and the register owner on node B.
type casFixture struct {
	m      *mesh
	groups [2]*rt.Group
	store  *durable.Registers // node B's journal; nil for plain cas
	dir    string
	sreg   *metrics.Registry
}

func (f *casFixture) close() error {
	err := f.m.close()
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
	return err
}

// casLoad is the client process's load loop and the state it reports.
type casLoad struct {
	o     phaseOpts
	model *casModel
	res   *phaseResult
	meter *meter
}

func (c *casLoad) alg() core.Algorithm {
	return core.AlgorithmFunc(func(id core.ProcID) core.Process {
		if id != casClient {
			return func(core.Env) error { return nil } // the owner only serves
		}
		return c.body
	})
}

// body issues ops back to back, one in flight: 80% Read, 20% CAS
// increment, uniform keys. Every op is one Env call.
func (c *casLoad) body(env core.Env) error {
	rng := rand.New(rand.NewSource(c.o.seed))
	res, model, rec := c.res, c.model, c.o.rec
	key := keyOf(casGroup, casClient)
	start := time.Now()
	warmEnd, end := start.Add(c.o.warm), start.Add(c.o.warm+c.o.dur)
	measuring := false
	var steps0 uint64
	for {
		now := time.Now()
		if !measuring && !now.Before(warmEnd) {
			measuring = true
			steps0 = env.LocalSteps()
			c.meter.start()
			res.slots.begin(now)
		}
		if measuring && !now.Before(end) {
			res.slots.end(now)
			c.meter.stop(res)
			res.steps = int64(env.LocalSteps() - steps0)
			return nil
		}
		k := rng.Intn(casKeys)
		isCAS := rng.Intn(casShare) == 0
		var err, bad error
		var sid int64
		t0 := time.Now()
		if rec != nil {
			sid = rec.begin(lOp, key)
		}
		if isCAS {
			var swapped bool
			var cur core.Value
			swapped, cur, err = env.CompareAndSwap(casRefs[k], model.want(k), model.val[k]+1)
			if err == nil {
				bad = model.cas(k, swapped, cur)
			}
		} else {
			var v core.Value
			v, err = env.Read(casRefs[k])
			if err == nil {
				bad = model.read(k, v)
			}
		}
		if rec != nil {
			rec.finish(sid, key)
		}
		t1 := time.Now()
		d := t1.Sub(t0)
		res.attempted++
		switch {
		case err != nil:
			res.fail("op on k%d: %v", k, err)
		case bad != nil:
			res.fail("%v", bad)
		}
		if measuring {
			res.ops++
			res.lat.add(d)
			res.slots.add(d)
			res.slots.tick(t1)
		}
	}
}

// runCAS runs the cas workload, or cas_durable when journal is set.
func runCAS(o phaseOpts, journal bool) (*phaseResult, error) {
	res := &phaseResult{lat: newReservoir(latencySamples, o.seed)}
	load := &casLoad{o: o, model: newCASModel(), res: res}
	gsm := graph.Complete(2)
	serial := 0
	build := func() (*casFixture, time.Duration, error) {
		serial++
		t0 := time.Now()
		m, err := newMesh(meshOpts{nodes: true, rec: o.rec, flight: o.flight,
			layout: func(a, b string) []string { return []string{a, b} }})
		if err != nil {
			return nil, 0, err
		}
		f := &casFixture{m: m}
		if journal {
			f.dir = filepath.Join(o.scratch, fmt.Sprintf("wal-%d-%d", os.Getpid(), serial))
			f.sreg = metrics.NewRegistry(2)
			f.store, err = durable.OpenRegisters(f.dir, durable.RegistersOptions{Registry: f.sreg})
			if err != nil {
				f.close()
				return nil, 0, fmt.Errorf("open register store: %w", err)
			}
		}
		for i, nd := range m.nodes {
			cfg := rt.GroupConfig{RunConfig: rt.RunConfig{GSM: gsm, Seed: o.seed}}
			if i == 1 {
				cfg.Durable = f.store
			}
			t1 := time.Now()
			g, err := nd.OpenGroup(casGroup, cfg, load.alg())
			if o.rec != nil {
				o.rec.interval(lOpen, time.Since(t1))
			}
			if err != nil {
				if i == 1 && f.store != nil {
					f.store.Close()
				}
				f.close()
				return nil, 0, fmt.Errorf("open group on node %d: %w", i, err)
			}
			f.groups[i] = g
		}
		err = awaitLinks([]link{
			{f.groups[0].Transport(), casClient, casOwner},
			{f.groups[1].Transport(), casOwner, casClient},
		})
		if err != nil {
			f.close()
			return nil, 0, err
		}
		return f, time.Since(t0), nil
	}
	closeFn := func(f *casFixture) error {
		stopGroups(f.groups[:], o.rec)
		return f.close()
	}
	f, setups, err := bringUps(o, build, closeFn)
	if err != nil {
		return nil, err
	}
	res.setup = setups
	load.meter = &meter{nodes: f.m.regs[:], store: f.sreg, rec: o.rec}

	for _, g := range f.groups {
		g.Start()
	}
	if werr := waitGroup(f.groups[0], o.warm+o.dur+phaseSlack); werr != nil {
		res.fail("client: %v", werr)
	}
	if !load.meter.done {
		f.close()
		return nil, fmt.Errorf("cas client stopped before its window ended: %v", res.problems)
	}
	for _, e := range load.model.verify("owner register", func(k int) (core.Value, bool) {
		return f.groups[1].Memory().Peek(casRefs[k])
	}) {
		res.fail("%v", e)
	}
	// Stopping node B's group closes the store; reopening it replays the
	// WAL, which must hold exactly the client's increments.
	stopGroups(f.groups[:], o.rec)
	stopErr := f.m.close()
	if stopErr != nil {
		res.fail("tear-down: %v", stopErr)
	}
	if journal {
		store, err := durable.OpenRegisters(f.dir, durable.RegistersOptions{})
		if err != nil {
			res.fail("reopen register store: %v", err)
		} else {
			rec := store.Recovered()
			for _, e := range load.model.verify("recovered register", func(k int) (core.Value, bool) {
				v, ok := rec[casRefs[k]]
				return v, ok
			}) {
				res.fail("%v", e)
			}
			if err := store.Close(); err != nil {
				res.fail("close reopened store: %v", err)
			}
		}
		os.RemoveAll(f.dir)
	}
	return res, nil
}

// phaseSlack bounds how long past its window a phase may take to wind
// down before it counts as hung.
const phaseSlack = 20 * time.Second

// stopGroups stops each group in turn, timing every Stop as an
// rt.group_stop span when rec is set.
func stopGroups(groups []*rt.Group, rec *recorder) {
	for _, g := range groups {
		t0 := time.Now()
		g.Stop()
		if rec != nil {
			rec.interval(lStop, time.Since(t0))
		}
	}
}

// waitGroup waits for a group's processes to return, stopping the group
// if they have not within d. It reports the group's process errors.
func waitGroup(g *rt.Group, d time.Duration) error {
	done := make(chan *rt.Result, 1)
	go func() { done <- g.Wait() }()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case r := <-done:
		return r.Err()
	case <-timer.C:
		g.Stop()
		<-done
		return fmt.Errorf("processes still running after %v", d)
	}
}
