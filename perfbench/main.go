// Command perfbench is the repository's benchmark: a two-node loopback
// mesh of tcp.Transport + rt.Node inside one OS process, driven by one of
// four workloads through the public APIs of internal/rt,
// internal/transport/tcp and internal/durable.
//
//	bash perfbench/run.sh --workload cas --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// an untraced phase, a phase with rt's own span recorder on, a phase with
// the benchmark's span wrappers around every layer boundary, and the
// layer microbenchmarks, and prints the per-layer metrics and a layer
// ledger. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The exit code is 0 when every output check passed, 1 when one failed,
// and 2 when the benchmark could not run. See README.md for the
// workloads, the metrics and how each layer metric maps to an end-to-end
// one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// latencySamples caps each phase's latency reservoir.
const latencySamples = 1 << 20

// setupRuns is how many bring-ups an untraced run times; setup_s is
// their median.
const setupRuns = 21

// workload is one way of driving the mesh.
type workload struct {
	name string
	rt   bool // the ops go through rt, so rt's trace.Flight applies
	run  func(phaseOpts) (*phaseResult, error)
}

var workloads = []workload{
	{"cas", true, func(o phaseOpts) (*phaseResult, error) { return runCAS(o, false) }},
	{"cas_durable", true, func(o phaseOpts) (*phaseResult, error) { return runCAS(o, true) }},
	{"stream", false, runStream},
	{"hbo", true, runHBO},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: cas, cas_durable, stream or hbo")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 10, "length of the measured window(s), in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and the layer ledger")
	scratch := fs.String("scratch", ".bench_build", "directory for WAL stores and the span dump")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload cas|cas_durable|stream|hbo, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	dur := time.Duration(*seconds * float64(time.Second))
	o := phaseOpts{seed: *seed, scratch: *scratch}

	var rep report
	var stealPct float64
	var err error
	if *traced == 0 {
		rep, stealPct, err = endToEnd(w, o, dur, stdout)
	} else {
		rep, stealPct, err = perLayer(w, o, dur, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 2
	}
	envBlock, _ := json.Marshal(map[string]any{
		"workload":   w.name,
		"trace":      *traced,
		"seed":       *seed,
		"seconds":    *seconds,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"steal_pct":  stealPct,
	})
	fmt.Fprintf(stdout, "env %s\n", envBlock)
	last, _ := json.Marshal(rep)
	fmt.Fprintf(stdout, "%s\n", last)
	if !rep.Correct {
		return 1
	}
	return 0
}

// warmFor is the warm-up before a window of length d.
func warmFor(d time.Duration) time.Duration {
	if w := d / 4; w < time.Second {
		return w
	}
	return time.Second
}

// printMetrics writes one "name value unit" line per metric, by name.
func printMetrics(out io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "metric %-34s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func printProblems(out io.Writer, phase string, r *phaseResult) {
	for _, p := range r.problems {
		fmt.Fprintf(out, "check failed (%s): %s\n", phase, p)
	}
}

// endToEnd runs the untraced measurement and returns its report.
func endToEnd(w workload, o phaseOpts, dur time.Duration, out io.Writer) (report, float64, error) {
	o.setups, o.warm, o.dur = setupRuns, warmFor(dur), dur
	r, err := w.run(o)
	if err != nil {
		return report{}, 0, err
	}
	printProblems(out, "timed", r)
	if r.ops == 0 || len(r.slots.slots) == 0 {
		return report{}, 0, fmt.Errorf("no operation completed in the window")
	}
	ops := float64(r.ops)
	lat := r.lat.sortedMicros()
	q := r.slots.medians()
	setups := make([]float64, len(r.setup))
	for i, d := range r.setup {
		setups[i] = d.Seconds()
	}
	errRatio := float64(r.failed) / float64(r.attempted)
	ms := map[string]metric{
		"throughput_ops_s": {q.opsPerSec, "1/s"},
		"latency_p50_us":   {q.p50, "us"},
		"latency_p95_us":   {q.p95, "us"},
		"cpu_us_per_op":    {q.cpuPerOp, "us"},
		"allocs_per_op":    {float64(r.win.mallocs) / ops, "count"},
		"max_rss_mb":       {maxRSSMB(), "MB"},
		"setup_s":          {median(setups), "s"},
		"ok_ratio":         {1 - errRatio, "ratio"},
	}
	printMetrics(out, ms)
	fmt.Fprintf(out, "metric %-34s %14.6f %s\n", "error_ratio", errRatio, "ratio")
	fmt.Fprintf(out, "window: %d ops in %d slots, %.1f ops/s, p50 %.3f us, p95 %.3f us, p99 %.3f us, %.3f cpu us/op\n",
		r.ops, len(r.slots.slots), ops/r.win.wall.Seconds(), percentile(lat, 50), percentile(lat, 95), percentile(lat, 99),
		float64(r.win.cpu)/1e3/ops)
	fmt.Fprintf(out, "samples: %d latencies, %d bring-ups\n", len(lat), len(r.setup))
	return report{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: ms}, r.win.stealPct, nil
}

// perLayer runs the untraced, flight-recorder and traced phases plus the
// microbenchmarks and returns the per-layer report.
func perLayer(w workload, o phaseOpts, dur time.Duration, out io.Writer) (report, float64, error) {
	phases := 2
	if w.rt {
		phases = 3
	}
	o.setups, o.dur = 1, dur/time.Duration(phases)
	o.warm = warmFor(o.dur)

	plain, err := w.run(o)
	if err != nil {
		return report{}, 0, fmt.Errorf("untraced phase: %w", err)
	}
	printProblems(out, "untraced", plain)
	var flight *phaseResult
	if w.rt {
		fo := o
		fo.flight = true
		if flight, err = w.run(fo); err != nil {
			return report{}, 0, fmt.Errorf("flight phase: %w", err)
		}
		printProblems(out, "flight", flight)
	}
	to := o
	to.rec = newRecorder(18)
	traced, err := w.run(to)
	if err != nil {
		return report{}, 0, fmt.Errorf("traced phase: %w", err)
	}
	printProblems(out, "traced", traced)
	spanFile := filepath.Join(o.scratch, fmt.Sprintf("spans-%s-%d.jsonl", w.name, o.seed))
	if err := to.rec.writeJSONL(spanFile); err != nil {
		return report{}, 0, fmt.Errorf("write spans: %w", err)
	}
	micro, microFsync, err := microbench(o.scratch)
	if err != nil {
		return report{}, 0, fmt.Errorf("microbenchmarks: %w", err)
	}
	for _, r := range []*phaseResult{plain, flight, traced} {
		if r != nil && r.ops == 0 {
			return report{}, 0, fmt.Errorf("no operation completed in a window")
		}
	}

	rows, sum := ledgerRows(traced)
	ms := layerMetrics(plain, flight, traced, to.rec, sum)
	for k, m := range micro {
		ms[k] = m
	}
	if plain.regs.fsync.Count == 0 {
		// No WAL on this workload's path: report the fsync latency of
		// the durable.apply microbenchmark's store instead.
		ms["durable.fsync_p50_us"] = metric{histQuantileMicros(microFsync, 0.5), "us"}
		ms["durable.fsync_p95_us"] = metric{histQuantileMicros(microFsync, 0.95), "us"}
	}
	ledger(out, w, traced, rows, sum)
	printMetrics(out, ms)
	fmt.Fprintf(out, "spans: %s\n", spanFile)

	rep := report{Correct: true, Metrics: ms}
	for _, r := range []*phaseResult{plain, flight, traced} {
		if r != nil {
			rep.Attempted += r.attempted
			rep.Failed += r.failed
		}
	}
	rep.Correct = rep.Failed == 0
	return rep, plain.win.stealPct, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics of the three phases; sum is
// the traced window's ledger total per op. Counter-based metrics come
// from the untraced phase, span-based ones from the traced phase. A
// metric of a layer the workload never reaches reads 0.
func layerMetrics(plain, flight, traced *phaseResult, rec *recorder, sum float64) map[string]metric {
	ops, tops := float64(plain.ops), float64(traced.ops)
	pr, tr := plain.regs, traced.regs
	sp := tr.spans
	pLat := plain.lat.sortedMicros()
	p50 := percentile(pLat, 50)
	tLat := traced.lat.sortedMicros()

	ms := map[string]metric{
		"rt.op_self_us":    {sp[lOp].meanSelf() / 1e3, "us"},
		"rt.serve_us":      {sp[lServe].meanTotal() / 1e3, "us"},
		"rt.group_open_us": {rec.stats(lOpen).meanTotal() / 1e3, "us"},
		"rt.group_stop_us": {rec.stats(lStop).meanTotal() / 1e3, "us"},
		"rt.steps_per_op":  {float64(plain.steps) / ops, "count"},

		"hbo.decide_us":                   {ratio(float64(traced.decide)/1e3, float64(traced.decided)), "us"},
		"hbo.rounds_per_decision":         {float64(plain.rounds) / ops, "count"},
		"hbo.msgs_per_decision":           {float64(plain.msgs) / ops, "count"},
		"hbo.remote_reg_ops_per_decision": {float64(tr.remote) / tops, "count"},

		"tcp.call_us":          {sp[lCall].meanTotal() / 1e3, "us"},
		"tcp.wire_us":          {sp[lCall].meanSelf() / 1e3, "us"},
		"tcp.send_ns":          {sp[lSend].meanTotal(), "ns"},
		"tcp.frames_per_batch": {ratio(float64(pr.batchFrames.SumNS)/1e3, float64(pr.batchFrames.Count)), "count"},
		"tcp.frames_per_ack":   {ratio(float64(pr.frameSent), float64(pr.acks())), "count"},
		"tcp.frame_rtt_p50_us": {histQuantileMicros(pr.rtt, 0.5), "us"},
		"tcp.retransmits":      {float64(pr.frameRetrans), "count"},

		"transport.recv_ns":          {sp[lRecv].meanTotal(), "ns"},
		"transport.empty_poll_ratio": {ratio(float64(tr.empties), float64(sp[lRecv].count)), "ratio"},

		"durable.fsync_p50_us":   {histQuantileMicros(pr.fsync, 0.5), "us"},
		"durable.fsync_p95_us":   {histQuantileMicros(pr.fsync, 0.95), "us"},
		"durable.fsyncs_per_op":  {float64(pr.fsync.Count) / ops, "count"},
		"durable.appends_per_op": {float64(pr.walAppends) / ops, "count"},

		"go.bytes_per_op":       {float64(plain.win.bytes) / ops, "B"},
		"go.gc_per_kop":         {float64(plain.win.gcs) * 1000 / ops, "count"},
		"proc.vcsw_per_op":      {float64(plain.win.vcsw) / ops, "count"},
		"proc.ivcsw_per_op":     {float64(plain.win.ivcsw) / ops, "count"},
		"bench.latency_p99_us":  {percentile(pLat, 99), "us"},
		"bench.trace_overhead":  {ratio(percentile(tLat, 50), p50), "ratio"},
		"bench.steal_pct":       {plain.win.stealPct, "%"},
		"trace.flight_overhead": {0, "ratio"},
	}
	if plain.polls > 0 {
		// The stream receiver counts its own polls, untraced.
		ms["transport.empty_poll_ratio"] = metric{ratio(float64(plain.empties), float64(plain.polls)), "ratio"}
	}
	if flight != nil {
		ms["trace.flight_overhead"] = metric{ratio(percentile(flight.lat.sortedMicros(), 50), p50), "ratio"}
	}
	ms["bench.ledger_residual_us"] = metric{traced.lat.meanMicros() - sum, "us"}
	return ms
}

// ledgerRow is one layer's self time per op in the traced window.
type ledgerRow struct {
	layer string
	us    float64
}

// ledgerRows splits the traced window's op time by layer: each layer's
// summed self time divided by the window's ops. The durable store's fsync
// time, which runs inside the owner's handler, is split out of rt.serve.
func ledgerRows(traced *phaseResult) ([]ledgerRow, float64) {
	ops := float64(traced.ops)
	tr := traced.regs
	var rows []ledgerRow
	var sum float64
	for l := layer(0); l < numLayers; l++ {
		s := tr.spans[l]
		if s.count == 0 {
			continue
		}
		self := float64(s.self) / 1e3
		if l == lServe && tr.fsync.Count > 0 {
			fs := float64(tr.fsync.SumNS) / 1e3
			self -= fs
			rows = append(rows, ledgerRow{"durable.wal_fsync", fs / ops})
			sum += fs / ops
		}
		rows = append(rows, ledgerRow{layerNames[l], self / ops})
		sum += self / ops
	}
	return rows, sum
}

// ledger prints the layer ledger of the traced window.
func ledger(out io.Writer, w workload, traced *phaseResult, rows []ledgerRow, sum float64) {
	fmt.Fprintf(out, "ledger %s: self time per op, traced window, %d ops\n", w.name, traced.ops)
	for _, r := range rows {
		fmt.Fprintf(out, "  %-22s %12.3f us\n", r.layer, r.us)
	}
	fmt.Fprintf(out, "  %-22s %12.3f us\n", "sum", sum)
	fmt.Fprintf(out, "  %-22s %12.3f us\n", "op latency (mean)", traced.lat.meanMicros())
	fmt.Fprintf(out, "  %-22s %12.3f us\n", "residual", traced.lat.meanMicros()-sum)
}
