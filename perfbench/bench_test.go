package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/mnm-model/mnm/internal/benor"
	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/metrics"
)

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct{ q, want float64 }{
		{0, 1}, {50, 5.5}, {95, 9.55}, {99, 9.91}, {100, 10}, {25, 3.25},
	}
	for _, c := range cases {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("percentile([7], 95) = %v, want 7", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
}

func TestReservoirKeepsEverythingBelowCapacity(t *testing.T) {
	r := newReservoir(4, 1)
	for _, d := range []int64{4000, 1000, 3000} {
		r.add(time.Duration(d))
	}
	got := r.sortedMicros()
	if len(got) != 3 || got[0] != 1 || got[2] != 4 {
		t.Fatalf("sample = %v, want [1 3 4]", got)
	}
	for i := 0; i < 100; i++ {
		r.add(2000)
	}
	if len(r.buf) != 4 || r.seen != 103 {
		t.Fatalf("len %d seen %d, want 4 and 103", len(r.buf), r.seen)
	}
}

func TestHistQuantileInterpolates(t *testing.T) {
	var h metrics.Histogram
	for i := 0; i < 100; i++ {
		h.ObserveValue(10) // bucket [8, 16) µs
	}
	s := h.Snapshot()
	p50 := histQuantileMicros(s, 0.5)
	if p50 <= 8 || p50 > 10 {
		t.Errorf("p50 = %v, want inside (8, 10]", p50)
	}
	if got := histQuantileMicros(metrics.HistSnapshot{}, 0.5); got != 0 {
		t.Errorf("empty p50 = %v, want 0", got)
	}
}

func TestLatHistQuantiles(t *testing.T) {
	for _, ns := range []int64{0, 1, 63, 64, 65, 127, 128, 1000, 43_999, 1 << 30} {
		lo, hi := bucketBounds(bucketOf(ns))
		if float64(ns) < lo || float64(ns) >= hi {
			t.Errorf("%d ns lands in bucket [%v, %v)", ns, lo, hi)
		}
		if ns >= 64 && (hi-lo)/lo > 1.0/64+1e-12 {
			t.Errorf("bucket [%v, %v) is wider than 1/64", lo, hi)
		}
	}
	var h latHist
	for i := 1; i <= 1000; i++ {
		h.add(time.Duration(i) * time.Microsecond)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500}, {0.95, 950}} {
		if got := h.quantileMicros(c.q); math.Abs(got-c.want)/c.want > 0.02 {
			t.Errorf("q%v = %v us, want %v within 2%%", c.q, got, c.want)
		}
	}
}

func TestSlotterMedians(t *testing.T) {
	var s slotter
	t0 := time.Now()
	s.begin(t0)
	// Ten slots of one second: nine at 100 ops of 10us, one disturbed
	// slot at 10 ops of 1ms.
	for slot := 1; slot <= 10; slot++ {
		n, d := 100, 10*time.Microsecond
		if slot == 4 {
			n, d = 10, time.Millisecond
		}
		for i := 0; i < n; i++ {
			s.add(d)
		}
		s.tick(t0.Add(time.Duration(slot) * time.Second))
	}
	if len(s.slots) != 10 {
		t.Fatalf("%d slots, want 10", len(s.slots))
	}
	q := s.medians()
	if math.Abs(q.opsPerSec-100) > 1e-9 {
		t.Errorf("throughput %v, want 100", q.opsPerSec)
	}
	if q.p50 < 9.8 || q.p50 > 10.2 {
		t.Errorf("p50 %v us, want about 10", q.p50)
	}
}

func TestSeqCheckerRejectsFaults(t *testing.T) {
	cases := []struct {
		name string
		seqs []int // deliveries on group 0
		sent int
		bad  bool
	}{
		{"in order", []int{0, 1, 2, 3}, 4, false},
		{"duplicate", []int{0, 1, 1, 2, 3}, 4, true},
		{"missing in the middle", []int{0, 1, 3}, 4, true},
		{"missing at the end", []int{0, 1, 2}, 4, true},
		{"reordered", []int{0, 2, 1, 3}, 4, true},
	}
	for _, c := range cases {
		chk := newSeqChecker(1)
		var errs int
		for _, s := range c.seqs {
			if chk.observe(0, s) != nil {
				errs++
			}
		}
		errs += len(chk.finish([]int{c.sent}))
		if (errs > 0) != c.bad {
			t.Errorf("%s: %d errors, want failure=%v", c.name, errs, c.bad)
		}
	}
}

func TestCheckDecisions(t *testing.T) {
	in := []benor.Val{benor.V0, benor.V1, benor.V1}
	d := func(vs ...benor.Val) []core.Value {
		out := make([]core.Value, len(vs))
		for i, v := range vs {
			out[i] = v
		}
		return out
	}
	if err := checkDecisions(in, d(benor.V1, benor.V1, benor.V1)); err != nil {
		t.Errorf("agreement on an input rejected: %v", err)
	}
	if err := checkDecisions(in, d(benor.V0, benor.V1, benor.V1)); err == nil {
		t.Error("split decision accepted")
	}
	same := []benor.Val{benor.V0, benor.V0, benor.V0}
	if err := checkDecisions(same, d(benor.V1, benor.V1, benor.V1)); err == nil {
		t.Error("decision outside the inputs accepted")
	}
	if err := checkDecisions(in, []core.Value{benor.V1, nil, benor.V1}); err == nil {
		t.Error("missing decision accepted")
	}
}

func TestCASModelRejectsFaults(t *testing.T) {
	m := newCASModel()
	if err := m.read(3, nil); err != nil {
		t.Fatalf("fresh register read as nil rejected: %v", err)
	}
	if err := m.cas(3, true, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.cas(3, true, 2); err != nil {
		t.Fatal(err)
	}
	if err := m.read(3, 2); err != nil {
		t.Errorf("read of the last stored value rejected: %v", err)
	}
	if err := m.read(3, 1); err == nil {
		t.Error("stale read accepted")
	}
	if err := m.cas(3, false, 2); err == nil {
		t.Error("a CAS that failed against the expected value was accepted")
	}

	store := map[int]core.Value{3: 2}
	lookup := func(k int) (core.Value, bool) { v, ok := store[k]; return v, ok }
	if errs := m.verify("owner", lookup); len(errs) != 0 {
		t.Fatalf("matching store rejected: %v", errs)
	}
	store[3] = 1 // a lost increment
	if errs := m.verify("owner", lookup); len(errs) != 1 {
		t.Errorf("lost increment: %d errors, want 1", len(errs))
	}
	store[3] = 2
	store[9] = 5 // a WAL value no client increment produced
	if errs := m.verify("recovered", lookup); len(errs) != 1 {
		t.Errorf("mismatched WAL value: %d errors, want 1", len(errs))
	}
}

// TestSmoke runs every workload briefly in both modes and checks the
// output contract: exit 0 and a final JSON line carrying every metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads")
	}
	e2e := []string{"throughput_ops_s", "latency_p50_us", "latency_p95_us", "cpu_us_per_op",
		"allocs_per_op", "max_rss_mb", "setup_s", "ok_ratio"}
	layered := []string{"rt.op_self_us", "tcp.wire_us", "tcp.frames_per_ack", "durable.apply_us",
		"wire.encode_ns", "bench.ledger_residual_us", "trace.flight_overhead"}
	for _, w := range workloads {
		for _, tr := range []string{"0", "1"} {
			var out, errOut bytes.Buffer
			args := []string{"--workload", w.name, "--seed", "3", "--seconds", "0.6", "--trace", tr, "--scratch", t.TempDir()}
			if code := run(args, &out, &errOut); code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s%s", w.name, tr, code, out.String(), errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var rep report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				t.Fatalf("%s trace=%s: last line: %v", w.name, tr, err)
			}
			if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w.name, tr, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := e2e
			if tr == "1" {
				want = layered
			}
			for _, name := range want {
				if _, ok := rep.Metrics[name]; !ok {
					t.Errorf("%s trace=%s: metric %s missing", w.name, tr, name)
				}
			}
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nonesuch"},
		{"--workload", "cas", "--trace", "2"},
		{"--workload", "cas", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want exit 2 and no output", args, code, out.String())
		}
	}
}
