package main

import (
	"errors"
	"fmt"
	"time"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/directory"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/rt"
	"github.com/mnm-model/mnm/internal/trace"
	"github.com/mnm-model/mnm/internal/transport"
	"github.com/mnm-model/mnm/internal/transport/tcp"
)

// nodeProcs sizes the node-level registries: the transport attributes
// frame events to the sending process's index within its group, and the
// largest group here has three processes.
const nodeProcs = 4

// meshOpts describes one loopback bring-up of two nodes, A and B.
type meshOpts struct {
	// nodes builds an rt.Node over each transport; without it the
	// workload drives the transports' group views directly.
	nodes bool
	// layout maps the two listen addresses to the address table every
	// rt group uses (one entry per process of the group).
	layout func(a, b string) []string
	// rec, if non-nil, wraps each transport so its group views record
	// spans (the traced run).
	rec *recorder
	// flight gives each rt.Node its own trace.Flight (rt's span plane).
	flight bool
}

// mesh is a two-node loopback cluster inside this process: one
// tcp.Transport per node, so one connection per direction.
type mesh struct {
	trs   [2]*tcp.Transport
	nodes [2]*rt.Node // nil entries without meshOpts.nodes
	regs  [2]*metrics.Registry
	addrs [2]string
}

func newMesh(o meshOpts) (*mesh, error) {
	m := &mesh{}
	for i := range m.trs {
		m.regs[i] = metrics.NewRegistry(nodeProcs)
		tr, err := tcp.New(tcp.Config{ListenAddr: "127.0.0.1:0", Registry: m.regs[i]})
		if err != nil {
			m.close()
			return nil, fmt.Errorf("node %d transport: %w", i, err)
		}
		m.trs[i] = tr
		m.addrs[i] = tr.Addr()
	}
	if !o.nodes {
		return m, nil
	}
	dir := directory.Uniform{Addrs: o.layout(m.addrs[0], m.addrs[1])}
	for i := range m.nodes {
		var tr transport.Transport = m.trs[i]
		if o.rec != nil {
			tr = &tracedTCP{Transport: m.trs[i], rec: o.rec}
		}
		var fl *trace.Flight
		if o.flight {
			fl = trace.NewFlight(m.addrs[i], 4096, 1)
		}
		nd, err := rt.NewNode(rt.NodeConfig{Transport: tr, Directory: dir, Registry: m.regs[i], Flight: fl})
		if err != nil {
			m.close()
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		m.nodes[i] = nd
	}
	return m, nil
}

// openLinkGroup opens group id on both transports with process i on node
// i and dials it, which brings up the connection in each direction. It
// returns the two views.
func (m *mesh) openLinkGroup(id transport.GroupID, rec *recorder) ([2]transport.Transport, error) {
	var views [2]transport.Transport
	addrs := []string{m.addrs[0], m.addrs[1]}
	for i := range views {
		var sh transport.Sharded = m.trs[i]
		if rec != nil {
			sh = &tracedTCP{Transport: m.trs[i], rec: rec}
		}
		v, err := sh.OpenGroup(id, transport.GroupConfig{N: 2, Hosted: []core.ProcID{core.ProcID(i)}, Addrs: addrs})
		if err != nil {
			return views, fmt.Errorf("open group %d on node %d: %w", id, i, err)
		}
		views[i] = v
		if err := v.Dial(); err != nil {
			return views, fmt.Errorf("dial group %d on node %d: %w", id, i, err)
		}
	}
	return views, nil
}

// close tears the cluster down: nodes stop their groups first, then every
// transport drains and closes.
func (m *mesh) close() error {
	var errs []error
	for i := range m.trs {
		switch {
		case m.nodes[i] != nil:
			errs = append(errs, m.nodes[i].Close())
		case m.trs[i] != nil:
			errs = append(errs, m.trs[i].Close())
		}
	}
	return errors.Join(errs...)
}

// linkTimeout bounds how long a bring-up may wait for its links.
const linkTimeout = 10 * time.Second

// awaitLinks polls until every (view, from, to) link reports LinkUp.
func awaitLinks(links []link) error {
	deadline := time.Now().Add(linkTimeout)
	for _, l := range links {
		for l.tr.LinkState(l.from, l.to) != transport.LinkUp {
			if time.Now().After(deadline) {
				return fmt.Errorf("link %v->%v not up after %v", l.from, l.to, linkTimeout)
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
	return nil
}

// link is one directed link as seen from a transport view.
type link struct {
	tr       transport.Transport
	from, to core.ProcID
}
