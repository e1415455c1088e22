package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/transport"
	"github.com/mnm-model/mnm/internal/transport/tcp"
)

// layer names one span kind: a boundary the traced run wraps from
// outside the program.
type layer uint8

const (
	lOp    layer = iota // rt: one Env call made by a benchmark body
	lCall               // tcp: Call/CallSpan on a group view (the RPC round trip)
	lServe              // rt: the owner's RPC handler (shm and the journal inside)
	lSend               // tcp: Send/Broadcast on a group view (the enqueue)
	lRecv               // transport: TryRecv on a group view (demux + mailbox)
	lBody               // hbo: one process body, start to return
	lOpen               // rt: OpenGroup on every node of an instance
	lStop               // rt: Stop on every node of an instance
	numLayers
)

var layerNames = [numLayers]string{"rt.op", "tcp.call", "rt.serve", "tcp.send", "transport.recv", "hbo.body", "rt.group_open", "rt.group_stop"}

// span is one recorded interval. Start and End are nanoseconds since the
// recorder's epoch; Parent is the enclosing span's id, or -1.
type span struct {
	id      atomic.Int64  // slot owner; -1 while free
	covered atomic.Int64  // ns of this span covered by finished children
	op      atomic.Uint64 // read by children begun on other goroutines
	layer   layer
	parent  int64
	start   int64
	end     int64
}

// spanKey identifies the process a span runs for: (group, process).
type spanKey uint64

func keyOf(g transport.GroupID, p core.ProcID) spanKey {
	return spanKey(uint64(g)<<32 | uint64(uint32(p)))
}

// recorder keeps the most recent spans in a fixed ring and folds every
// finished span into per-layer totals, so a multi-second traced run has
// exact ledgers and bounded memory. A process has at most one chain of
// open spans at a time (an Env call, the RPC it issues, the handler that
// serves it), so the innermost open span per process is the parent of
// the next one begun for it.
type recorder struct {
	epoch time.Time
	ring  []span
	mask  int64
	next  atomic.Int64
	ops   atomic.Uint64
	top   sync.Map // spanKey -> *atomic.Int64 (innermost open span id)

	count   [numLayers]atomic.Int64
	total   [numLayers]atomic.Int64 // ns
	self    [numLayers]atomic.Int64 // ns
	empties atomic.Int64            // TryRecv calls that found nothing
	remote  atomic.Int64            // register ops on registers owned elsewhere
}

func newRecorder(ringBits uint) *recorder {
	r := &recorder{epoch: time.Now(), ring: make([]span, 1<<ringBits), mask: 1<<ringBits - 1}
	for i := range r.ring {
		r.ring[i].id.Store(-1)
	}
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) topOf(k spanKey) *atomic.Int64 {
	if v, ok := r.top.Load(k); ok {
		return v.(*atomic.Int64)
	}
	fresh := new(atomic.Int64)
	fresh.Store(-1)
	v, _ := r.top.LoadOrStore(k, fresh)
	return v.(*atomic.Int64)
}

// begin opens a span of layer l for process k, parented to k's innermost
// open span, and returns its id.
func (r *recorder) begin(l layer, k spanKey) int64 {
	top := r.topOf(k)
	parent := top.Load()
	id := r.next.Add(1) - 1
	s := &r.ring[id&r.mask]
	s.id.Store(id)
	s.covered.Store(0)
	s.layer, s.parent, s.start, s.end = l, parent, r.now(), 0
	if ps := r.slot(parent); ps != nil {
		s.op.Store(ps.op.Load())
	} else {
		s.op.Store(r.ops.Add(1))
	}
	top.Store(id)
	return id
}

// slot returns the live ring entry of span id, or nil once it was
// overwritten (or id is -1).
func (r *recorder) slot(id int64) *span {
	if id < 0 {
		return nil
	}
	s := &r.ring[id&r.mask]
	if s.id.Load() != id {
		return nil
	}
	return s
}

// finish closes span id for process k: its self time (duration minus the
// part its children covered) goes to its layer's totals, and its duration
// to its parent's covered time.
func (r *recorder) finish(id int64, k spanKey) {
	s := r.slot(id)
	if s == nil {
		return
	}
	s.end = r.now()
	dur := s.end - s.start
	r.count[s.layer].Add(1)
	r.total[s.layer].Add(dur)
	r.self[s.layer].Add(dur - s.covered.Load())
	if ps := r.slot(s.parent); ps != nil {
		ps.covered.Add(dur)
	}
	r.topOf(k).Store(s.parent)
}

// interval records an already-measured span with no children or parent
// (group lifecycle steps timed by the harness).
func (r *recorder) interval(l layer, d time.Duration) {
	r.count[l].Add(1)
	r.total[l].Add(int64(d))
	r.self[l].Add(int64(d))
}

// layerStats is a snapshot of one layer's totals.
type layerStats struct {
	count       int64
	total, self time.Duration
}

func (r *recorder) stats(l layer) layerStats {
	return layerStats{r.count[l].Load(), time.Duration(r.total[l].Load()), time.Duration(r.self[l].Load())}
}

// meanTotal returns the mean span duration of the layer in nanoseconds,
// 0 when empty.
func (s layerStats) meanTotal() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.total) / float64(s.count)
}

// meanSelf returns the mean self time of the layer in nanoseconds, 0
// when empty.
func (s layerStats) meanSelf() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.self) / float64(s.count)
}

// writeJSONL writes the spans still in the ring, oldest first, one JSON
// object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := r.next.Load()
	from := n - int64(len(r.ring))
	if from < 0 {
		from = 0
	}
	for id := from; id < n; id++ {
		s := r.slot(id)
		if s == nil || s.end == 0 {
			continue
		}
		if err := enc.Encode(struct {
			ID     int64  `json:"id"`
			Parent int64  `json:"parent"`
			Op     uint64 `json:"op"`
			Layer  string `json:"layer"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{id, s.parent, s.op.Load(), layerNames[s.layer], s.start, s.end}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedTCP wraps a node's tcp.Transport so every group view it hands
// out records spans. Embedding forwards the node-level surface rt.Node
// probes for (Addr, Instrument, LinkState, Close).
type tracedTCP struct {
	*tcp.Transport
	rec *recorder
}

var _ transport.Sharded = (*tracedTCP)(nil)

// view is everything a tcp group view implements; the wrapper forwards
// all of it so rt takes the same code path as over the bare view.
type view interface {
	transport.Transport
	transport.RPC
	transport.SpanRPC
	transport.SpanCarrier
	transport.Instrumentable
}

// OpenGroup implements transport.Sharded.
func (t *tracedTCP) OpenGroup(id transport.GroupID, cfg transport.GroupConfig) (transport.Transport, error) {
	v, err := t.Transport.OpenGroup(id, cfg)
	if err != nil {
		return nil, err
	}
	inner, ok := v.(view)
	if !ok {
		v.Close()
		return nil, fmt.Errorf("perfbench: group view %T lacks an optional transport interface", v)
	}
	return &tracedView{view: inner, rec: t.rec, gid: id}, nil
}

// tracedView records tcp.send, tcp.call, transport.recv and rt.serve
// spans around one group view.
type tracedView struct {
	view
	rec *recorder
	gid transport.GroupID
}

var _ view = (*tracedView)(nil)

func (v *tracedView) Send(from, to core.ProcID, payload core.Value) error {
	k := keyOf(v.gid, from)
	id := v.rec.begin(lSend, k)
	defer v.rec.finish(id, k)
	return v.view.Send(from, to, payload)
}

func (v *tracedView) SendSpan(from, to core.ProcID, payload core.Value, sc core.SpanContext) error {
	k := keyOf(v.gid, from)
	id := v.rec.begin(lSend, k)
	defer v.rec.finish(id, k)
	return v.view.SendSpan(from, to, payload, sc)
}

func (v *tracedView) Broadcast(from core.ProcID, payload core.Value) error {
	k := keyOf(v.gid, from)
	id := v.rec.begin(lSend, k)
	defer v.rec.finish(id, k)
	return v.view.Broadcast(from, payload)
}

func (v *tracedView) BroadcastSpan(from core.ProcID, payload core.Value, sc core.SpanContext) error {
	k := keyOf(v.gid, from)
	id := v.rec.begin(lSend, k)
	defer v.rec.finish(id, k)
	return v.view.BroadcastSpan(from, payload, sc)
}

func (v *tracedView) TryRecv(p core.ProcID) (core.Message, bool) {
	k := keyOf(v.gid, p)
	id := v.rec.begin(lRecv, k)
	m, ok := v.view.TryRecv(p)
	v.rec.finish(id, k)
	if !ok {
		v.rec.empties.Add(1)
	}
	return m, ok
}

func (v *tracedView) Call(from, to core.ProcID, req core.Value) (core.Value, error) {
	k := keyOf(v.gid, from)
	id := v.rec.begin(lCall, k)
	defer v.rec.finish(id, k)
	return v.view.Call(from, to, req)
}

func (v *tracedView) CallSpan(from, to core.ProcID, req core.Value, sc core.SpanContext) (core.Value, core.SpanContext, error) {
	k := keyOf(v.gid, from)
	id := v.rec.begin(lCall, k)
	defer v.rec.finish(id, k)
	return v.view.CallSpan(from, to, req, sc)
}

func (v *tracedView) SetHandler(fn func(from core.ProcID, req core.Value) (core.Value, error)) {
	v.view.SetHandler(func(from core.ProcID, req core.Value) (core.Value, error) {
		k := keyOf(v.gid, from)
		id := v.rec.begin(lServe, k)
		defer v.rec.finish(id, k)
		return fn(from, req)
	})
}

func (v *tracedView) SetSpanHandler(fn transport.SpanHandler) {
	v.view.SetSpanHandler(func(from core.ProcID, req core.Value, sc core.SpanContext) (core.Value, core.SpanContext, error) {
		k := keyOf(v.gid, from)
		id := v.rec.begin(lServe, k)
		defer v.rec.finish(id, k)
		return fn(from, req, sc)
	})
}

// tracedEnv records an rt.op span around every Env call that does work
// and counts register ops on registers owned by processes hosted on
// another node.
type tracedEnv struct {
	core.Env
	rec    *recorder
	key    spanKey
	remote func(owner core.ProcID) bool
}

func (e *tracedEnv) op() int64 { return e.rec.begin(lOp, e.key) }

func (e *tracedEnv) done(id int64) { e.rec.finish(id, e.key) }

func (e *tracedEnv) reg(ref core.Ref) {
	if e.remote(ref.Owner) {
		e.rec.remote.Add(1)
	}
}

func (e *tracedEnv) Send(to core.ProcID, payload core.Value) error {
	id := e.op()
	defer e.done(id)
	return e.Env.Send(to, payload)
}

func (e *tracedEnv) Broadcast(payload core.Value) error {
	id := e.op()
	defer e.done(id)
	return e.Env.Broadcast(payload)
}

func (e *tracedEnv) TryRecv() (core.Message, bool) {
	id := e.op()
	defer e.done(id)
	return e.Env.TryRecv()
}

func (e *tracedEnv) Read(ref core.Ref) (core.Value, error) {
	e.reg(ref)
	id := e.op()
	defer e.done(id)
	return e.Env.Read(ref)
}

func (e *tracedEnv) Write(ref core.Ref, v core.Value) error {
	e.reg(ref)
	id := e.op()
	defer e.done(id)
	return e.Env.Write(ref, v)
}

func (e *tracedEnv) CompareAndSwap(ref core.Ref, expected, desired core.Value) (bool, core.Value, error) {
	e.reg(ref)
	id := e.op()
	defer e.done(id)
	return e.Env.CompareAndSwap(ref, expected, desired)
}

func (e *tracedEnv) Yield() {
	id := e.op()
	defer e.done(id)
	e.Env.Yield()
}

// traceAlg wraps every process of alg in an hbo.body span and hands it a
// tracedEnv. remote reports whether a register owner lives on another
// node than the calling process.
func traceAlg(alg core.Algorithm, rec *recorder, gid transport.GroupID, remote func(self, owner core.ProcID) bool) core.Algorithm {
	return core.AlgorithmFunc(func(id core.ProcID) core.Process {
		body := alg.ProcessFor(id)
		return func(env core.Env) error {
			k := keyOf(gid, id)
			sid := rec.begin(lBody, k)
			defer rec.finish(sid, k)
			te := &tracedEnv{Env: env, rec: rec, key: k, remote: func(owner core.ProcID) bool { return remote(id, owner) }}
			return body(te)
		}
	})
}
