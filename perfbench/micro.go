package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/durable"
	"github.com/mnm-model/mnm/internal/graph"
	"github.com/mnm-model/mnm/internal/hbo"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/queue"
	"github.com/mnm-model/mnm/internal/rt"
	"github.com/mnm-model/mnm/internal/shm"
	"github.com/mnm-model/mnm/internal/wire"
)

// microReps is how many timed batches each microbenchmark runs; it
// reports the median batch.
const microReps = 5

// timeBatches runs fn(n) microReps times and returns the median time per
// unit of work in nanoseconds.
func timeBatches(n int, fn func(n int) error) (float64, error) {
	per := make([]float64, microReps)
	for i := range per {
		t0 := time.Now()
		if err := fn(n); err != nil {
			return 0, err
		}
		per[i] = float64(time.Since(t0)) / float64(n)
	}
	return median(per), nil
}

// mallocsPer returns the heap allocations per unit of fn(n).
func mallocsPer(n int, fn func(n int) error) (float64, error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	if err := fn(n); err != nil {
		return 0, err
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), nil
}

// microbench measures the layers the span wrappers cannot split: the
// payload codec, owner-resident register ops, the mailbox ring and the
// durable register store. It also returns the store's wal_fsync
// histogram.
func microbench(scratch string) (map[string]metric, metrics.HistSnapshot, error) {
	var none metrics.HistSnapshot
	// wire: every RPC envelope, every HBO payload, and a plain int.
	payloads := append(append(rt.WirePayloads(), hbo.WirePayloads()...), core.Value(123456))
	encoded := make([][]byte, len(payloads))
	for i, v := range payloads {
		b, err := wire.AppendValue(nil, v)
		if err != nil {
			return nil, none, fmt.Errorf("encode %T: %w", v, err)
		}
		encoded[i] = b
	}
	var buf []byte
	encode := func(n int) error {
		for i := 0; i < n; i++ {
			var err error
			if buf, err = wire.AppendValue(buf[:0], payloads[i%len(payloads)]); err != nil {
				return err
			}
		}
		return nil
	}
	decode := func(n int) error {
		for i := 0; i < n; i++ {
			d := wire.NewDecoder(encoded[i%len(encoded)])
			if d.Value(); d.Err() != nil {
				return d.Err()
			}
		}
		return nil
	}
	roundtrip := func(n int) error {
		if err := encode(n); err != nil {
			return err
		}
		return decode(n)
	}

	// shm: the client's Read and CAS on 4096 registers owned by its
	// neighbour, the domain check included.
	mem := shm.NewMemory(shm.NewUniformDomain(graph.Complete(2)))
	val := make([]int, casKeys)
	for k, ref := range casRefs {
		if err := mem.Write(casOwner, ref, 1); err != nil {
			return nil, none, err
		}
		val[k] = 1
	}
	read := func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := mem.Read(casClient, casRefs[i%casKeys]); err != nil {
				return err
			}
		}
		return nil
	}
	cas := func(n int) error {
		for i := 0; i < n; i++ {
			k := i % casKeys
			ok, _, err := mem.CompareAndSwap(casClient, casRefs[k], val[k], val[k]+1)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("shm: CAS on k%d did not swap", k)
			}
			val[k]++
		}
		return nil
	}

	// queue: one push and one pop on a mailbox ring 64 messages deep.
	var ring queue.Ring[core.Message]
	for i := 0; i < 64; i++ {
		ring.Push(core.Message{From: 1, Payload: i})
	}
	pushPop := func(n int) error {
		for i := 0; i < n; i++ {
			ring.Push(core.Message{From: 1, Payload: i})
			if _, ok := ring.Pop(); !ok {
				return errors.New("queue: empty ring")
			}
		}
		return nil
	}

	// durable: Apply appends one record and fsyncs it.
	dir := filepath.Join(scratch, fmt.Sprintf("micro-wal-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	sreg := metrics.NewRegistry(2)
	store, err := durable.OpenRegisters(dir, durable.RegistersOptions{Registry: sreg})
	if err != nil {
		return nil, none, err
	}
	defer store.Close() // a scratch store, removed right after
	next := 0
	apply := func(n int) error {
		for i := 0; i < n; i++ {
			next++
			if err := store.Apply(casRefs[next%casKeys], next); err != nil {
				return err
			}
		}
		return nil
	}

	out := map[string]metric{}
	for _, m := range []struct {
		name, unit string
		measure    func(int, func(int) error) (float64, error)
		n          int
		fn         func(int) error
		scale      float64 // from the measured unit (ns or count) to unit
	}{
		{"wire.encode_ns", "ns", timeBatches, 200000, encode, 1},
		{"wire.decode_ns", "ns", timeBatches, 200000, decode, 1},
		{"wire.allocs_per_roundtrip", "count", mallocsPer, 200000, roundtrip, 1},
		{"shm.read_ns", "ns", timeBatches, 400000, read, 1},
		{"shm.cas_ns", "ns", timeBatches, 400000, cas, 1},
		{"queue.push_pop_ns", "ns", timeBatches, 1000000, pushPop, 1},
		{"durable.apply_us", "us", timeBatches, 40, apply, 1e-3},
	} {
		v, err := m.measure(m.n, m.fn)
		if err != nil {
			return nil, none, fmt.Errorf("%s: %w", m.name, err)
		}
		out[m.name] = metric{v * m.scale, m.unit}
	}
	return out, sreg.Histogram(metrics.HistFsync).Snapshot(), nil
}
