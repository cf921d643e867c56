// Command perfbench is the repository's end-to-end benchmark. One
// closed-loop client drives one workload on one compute slot: every
// caller waits for its reply before sending the next request, the
// scenario Runner has one worker and the service one executor slot. Every
// op's output is checked against a reference outside the timed window.
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics, each timing at a reference
// host speed (see hostProbe) with the figure as timed beside it in the
// human-readable lines. --trace 1 alternates untraced and traced ops
// and reports the per-layer metrics instead:
// spans timed from this package around the public calls of each layer,
// work counts read from public accessors, the HTTP wire and
// runtime/metrics, plus the tracing overhead (traced minus untraced
// median latency). The spans are kept in memory and written out at the
// end. Human-readable lines, each timing with its sample count, come
// first; the last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics. BENCHMARK.json at the
// repository root records why each workload and metric exists.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// collect forces a garbage collection before each op, the way a
	// fresh CLI process starts with an empty heap.
	collect bool
	// minOps is the fewest ops a run makes, past the deadline if need
	// be, so that every percentile it reports has the samples behind it.
	minOps int
	// countOps is how many traced ops the exact work counts cover: a
	// fixed prefix, so they repeat exactly for a given seed however many
	// ops the time allows.
	countOps int
	// probes is how many host probes run before each op.
	probes int
	setup  func(ctx context.Context, e *env) (system, error)
}

var workloads = []workload{
	{name: "replay", collect: true, minOps: 3, countOps: 2, probes: 8, setup: setupReplay},
	{name: "sweep", collect: true, minOps: 100, countOps: 16, probes: 1, setup: setupSweep},
	{name: "serve-durable", minOps: 100, countOps: 16, probes: 1, setup: setupDurable},
	{name: "serve-fabric", minOps: 100, countOps: 16, probes: 1, setup: setupFabric},
}

// setupReps is how many times a run sets its system up; setup_s is the
// median and the last system is the one measured.
const setupReps = 3

// setupProbes is how many host probes run before and after each set-up.
const setupProbes = 8

// env is what a workload's set-up gets from the run.
type env struct {
	seed uint64
	tr   *tracer // nil in untraced runs
	dir  string  // the run's own directory under .bench_build
	rep  int     // set-up repetition, 0-based
	// probe is the run's host probe. probed and untimed are the probe
	// times a set-up or op took through probeNow and the time they took.
	probe   *hostProbe
	probed  samples
	untimed time.Duration
	// recoverMS collects the Service.Recover times of the set-ups.
	recoverMS samples
}

// opResult is what one op hands to its check and to the metrics.
type opResult struct {
	out any
	// latencies, when set, are the op's latency samples in ms in place
	// of its own duration (replay: one per simulated day).
	latencies samples
	// nodeDays is the simulated node-days the op resolved.
	nodeDays float64
}

// system is a workload after set-up, ready for its first timed op.
type system interface {
	// op runs timed op i: all the work one closed-loop client waits for.
	op(ctx context.Context, i int) (opResult, error)
	// check verifies op i's output against a reference, outside the
	// timed window.
	check(ctx context.Context, i int, res opResult) error
	// shadow times op i's layers by calling them directly, after a
	// traced op and outside its timed window.
	shadow(ctx context.Context, i int, res opResult) error
	// mayStop reports whether an untraced run may end after the latest
	// op.
	mayStop() bool
	// fingerprint is the set-up's exact work counts; every set-up of a
	// run must give the same one.
	fingerprint() string
	// notes are extra lines for the human-readable report.
	notes() []string
	close()
}

// probeNow runs one host probe between two pieces of timed work of a
// long set-up or op, so that its probe times cover the whole of it; the
// probe's own time is kept out of the timing. Traced ops do not probe.
func (e *env) probeNow() {
	if e.tr.recording() {
		return
	}
	t0 := time.Now()
	e.probed = append(e.probed, e.probe.sample(1)...)
	e.untimed += time.Since(t0)
}

// startTiming clears what probeNow gathered.
func (e *env) startTiming() { e.probed, e.untimed = nil, 0 }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
	note  string
}

type report struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]*metric `json:"metrics"`
	// exact holds the per-op work counts that must repeat exactly.
	exact  map[string]float64
	order  []string
	lines  []string
	errors []string
}

func (r *report) set(name, unit string, v float64, n int, note string) {
	r.Metrics[name] = &metric{Value: v, Unit: unit, n: n, note: note}
	r.order = append(r.order, name)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: replay, sweep, serve-durable or serve-fabric")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the timed window")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	spans := fs.String("spans", "", "where a traced run writes its spans (default .bench_build/spans-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (replay, sweep, serve-durable, serve-fabric), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	// A hung op must not hang the run: give up after 170 s, without a
	// result.
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(stderr, "perfbench: run exceeded 170s, aborting")
		os.Exit(3)
	})
	defer watchdog.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 160*time.Second)
	defer cancel()
	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	rep, err := bench(ctx, *w, *seed, time.Duration(*seconds*float64(time.Second)), tr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if tr != nil {
		path := *spans
		if path == "" {
			path = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", w.name, *seed))
		}
		if err := tr.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		rep.lines = append(rep.lines, "spans written to "+path)
	}
	for _, e := range rep.errors {
		fmt.Fprintln(stderr, "perfbench: FAILED:", e)
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%d: %d ops, %d failed, correct=%v\n",
		w.name, *seed, *seconds, *trace, rep.Attempted, rep.Failed, rep.Correct)
	for _, n := range rep.order {
		m := rep.Metrics[n]
		fmt.Fprintf(stdout, "  %-28s %14.6g %-12s n=%-6d %s\n", n, m.Value, m.Unit, m.n, m.note)
	}
	for _, l := range rep.lines {
		fmt.Fprintln(stdout, l)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// memSnap is a reading of the runtime counters the metrics use.
type memSnap struct {
	allocBytes, gcCycles, gcCPU, userCPU float64
}

var memSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/user:cpu-seconds"},
}

func readMem() memSnap {
	metrics.Read(memSamples)
	v := func(i int) float64 {
		switch memSamples[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(memSamples[i].Value.Uint64())
		case metrics.KindFloat64:
			return memSamples[i].Value.Float64()
		}
		return 0
	}
	return memSnap{v(0), v(1), v(2), v(3)}
}

func (a memSnap) sub(b memSnap) memSnap {
	return memSnap{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU, a.userCPU - b.userCPU}
}

func (a memSnap) add(b memSnap) memSnap {
	return memSnap{a.allocBytes + b.allocBytes, a.gcCycles + b.gcCycles, a.gcCPU + b.gcCPU, a.userCPU + b.userCPU}
}

// liveHeapMB collects the heap and returns what stays live, in MiB. The
// second collection empties the sync.Pool victim caches the first one
// only demotes.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

const mib = 1 << 20

// bench sets the workload up, runs its timed window and computes the
// metrics: end-to-end ones untraced (tr nil), per-layer ones traced.
func bench(ctx context.Context, w workload, seed uint64, window time.Duration, tr *tracer) (*report, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	rep := &report{Metrics: map[string]*metric{}, exact: map[string]float64{}}
	e := &env{seed: seed, tr: tr, dir: dir, probe: newHostProbe()}

	var (
		setupS, setupRaw samples
		sys              system
		prints           []string
	)
	probe := e.probe
	probe.sample(setupProbes)
	for k := 0; k < setupReps; k++ {
		if sys != nil {
			sys.close()
			sys = nil
		}
		e.rep = k
		runtime.GC()
		before := probe.sample(setupProbes)
		e.startTiming()
		t0 := time.Now()
		s, err := w.setup(ctx, e)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", k, err)
		}
		d := (time.Since(t0) - e.untimed).Seconds()
		setupRaw = append(setupRaw, d)
		probed := append(append(before, e.probed...), probe.sample(setupProbes)...)
		setupS = append(setupS, d*probeScale(probed))
		sys = s
		prints = append(prints, s.fingerprint())
	}
	defer sys.close()
	for _, p := range prints[1:] {
		if p != prints[0] {
			rep.errors = append(rep.errors, fmt.Sprintf("set-up work counts differ between set-ups of one seed: %q vs %q", prints[0], p))
		}
	}

	var (
		ts          timings // the untraced ops
		latTraced   samples // ms, traced ops
		untraced    memSnap // runtime counters summed over untraced ops
		untracedOps int
		traced      int
	)
	deadline := time.Now().Add(window)
	for i := 0; ; i++ {
		// Past the deadline, a run stops once it has its minimum ops and
		// traced prefix and the system allows it, or at once if an op has
		// failed: the prefix of a failing program may never fill.
		if time.Now().After(deadline) && (rep.Failed > 0 || i >= w.minOps && (tr == nil && sys.mayStop() || tr != nil && traced >= w.countOps)) {
			break
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("run cut short after %d ops: %w", i, ctx.Err())
		}
		isTraced := tr != nil && i%2 == 1
		if w.collect {
			runtime.GC()
		}
		probed := probe.sample(w.probes)
		m0 := readMem()
		tr.record(i, isTraced)
		e.startTiming()
		t0 := time.Now()
		res, err := sys.op(ctx, i)
		d := time.Since(t0) - e.untimed
		tr.record(i, false)
		m := readMem().sub(m0)
		rep.Attempted++
		if err == nil {
			err = sys.check(ctx, i, res)
		}
		if err != nil {
			rep.Failed++
			rep.errors = append(rep.errors, fmt.Sprintf("op %d: %v", i, err))
			continue
		}
		ms := res.latencies
		if ms == nil {
			ms = samples{float64(d) / 1e6}
		}
		if isTraced {
			traced++
			latTraced = append(latTraced, ms...)
			tr.record(i, true)
			err := sys.shadow(ctx, i, res)
			tr.record(i, false)
			if err != nil {
				rep.Failed++
				rep.errors = append(rep.errors, fmt.Sprintf("op %d (traced): %v", i, err))
			}
			continue
		}
		ts.add(ms, append(probed, e.probed...), res.nodeDays, d.Seconds())
		untraced = untraced.add(m)
		untracedOps++
	}
	rep.lines = append(rep.lines, sys.notes()...)
	if untracedOps == 0 {
		return nil, errors.New("no untraced op succeeded")
	}
	perOp := float64(untracedOps)
	if tr != nil {
		layerMetrics(rep, w, e, tr, ts.raw, latTraced, untraced, perOp)
		rep.Correct = rep.Failed == 0 && len(rep.errors) == 0
		return rep, nil
	}

	// Timings are reported at the reference host speed (see hostProbe);
	// the notes give the same statistic as timed.
	ts.flush()
	note := func(raw float64, unit string) string {
		return fmt.Sprintf("%.6g %s as timed", raw, unit)
	}
	rep.set("setup_s", "s", setupS.median(), len(setupS), "median of set-ups; "+note(setupRaw.median(), "s"))
	rep.set("latency_p50_ms", "ms", ts.lat.median(), len(ts.lat), note(ts.raw.median(), "ms"))
	// The p90 is printed, not reported: a shared host's bursts of
	// slowness, too short for the probe to see, set it more than the
	// program does.
	if p90, ok := ts.lat.percentile(0.9); ok {
		raw, _ := ts.raw.percentile(0.9)
		rep.lines = append(rep.lines, fmt.Sprintf("latency p90 (no bound): %.6g ms, n=%d; %s", p90, len(ts.lat), note(raw, "ms")))
	} else {
		rep.lines = append(rep.lines, fmt.Sprintf("latency p90 omitted: %d samples leave fewer than %d beyond it", len(ts.lat), minTail))
	}
	rep.set("node_days_per_s", "node-days/s", ts.nodeDays/ts.busy, untracedOps, note(ts.nodeDays/ts.rawBusy, "node-days/s"))
	rep.lines = append(rep.lines, fmt.Sprintf("host probe: median %.4g ms over %d probes (reference %.4g ms)", ts.probe.median(), len(ts.probe), probeRefMS))
	rep.set("alloc_mb", "MiB/op", untraced.allocBytes/perOp/mib, untracedOps, "")
	// The samples grow with the number of ops; drop them so that the live
	// heap is the system's own.
	ts, e.probe = timings{}, nil
	rep.set("retained_mb", "MiB", liveHeapMB(), 1, "live heap after the run")
	runtime.KeepAlive(sys)
	rep.Correct = rep.Failed == 0 && len(rep.errors) == 0
	return rep, nil
}

// layerMetrics fills the per-layer metrics of a traced run. Timings are
// medians over the traced ops of the time per op in each layer's spans;
// counts are per op over the first countOps traced ops, which repeat
// exactly for a given seed.
func layerMetrics(rep *report, w workload, e *env, tr *tracer, lat, latTraced samples, untraced memSnap, perOp float64) {
	tr.link()
	sessions := tr.sessions()
	prefix := sessions
	if len(prefix) > w.countOps {
		prefix = prefix[:w.countOps]
	}
	sum := func(name string) float64 {
		t := 0.0
		for _, s := range prefix {
			t += tr.counts[s][name]
		}
		return t
	}
	exact := func(name, unit string, v float64) {
		rep.set(name, unit, v, len(prefix), "exact, first traced ops")
		rep.exact[name] = v
	}
	n := float64(len(prefix))
	timed := func(name string) {
		v, ops := tr.spanMS(strings.TrimSuffix(name, "_ms"))
		rep.set(name, "ms", v, ops, "median per traced op")
	}
	// perSession is a median over traced ops of a per-op difference.
	perSession := func(name string, f func(s int) (float64, bool)) {
		var xs samples
		for _, s := range sessions {
			if v, ok := f(s); ok {
				xs = append(xs, v)
			}
		}
		v := 0.0
		if len(xs) > 0 {
			v = xs.median()
		}
		rep.set(name, "ms", v, len(xs), "median per traced op")
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	timed("core.new_ms")
	timed("core.run_ms")
	exact("des.events", "count/op", sum("des.events")/n)
	runNS := 0.0
	for _, v := range tr.perSession("core.run", (*span).dur) {
		runNS += v * 1e6
	}
	allEvents := 0.0
	for _, s := range sessions {
		allEvents += tr.counts[s]["des.events"]
	}
	rep.set("des.ns_per_event", "ns", ratio(runNS, allEvents), len(sessions), "core.run time over events, traced ops")
	exact("sched.jobs_started", "count/op", sum("sched.jobs_started")/n)
	exact("sched.preemptions", "count/op", sum("sched.preemptions")/n)
	exact("sched.holds", "count/op", sum("sched.holds")/n)
	timed("core.results_ms")
	timed("scenario.base_ms")
	timed("scenario.extend_ms")
	exact("scenario.sims_per_scenario", "ratio", ratio(sum("sims"), sum("scenarios")))
	exact("scenario.memo_hit_ratio", "ratio", ratio(sum("memo.hits"), sum("memo.hits")+sum("memo.misses")))
	exact("scenario.memo_mb", "MiB", sum("memo.bytes")/n/mib)
	timed("api.submit_ms")
	timed("api.repeat_ms")
	timed("api.results_ms")
	submit := tr.perSession("api.submit", (*span).dur)
	direct := tr.perSession("scenario.direct", (*span).dur)
	perSession("service.overhead_ms", func(s int) (float64, bool) {
		d, ok := direct[s]
		return submit[s] - d, ok && submit[s] > 0
	})
	exact("journal.records_per_op", "count/op", sum("journal.records")/n)
	// Journal bytes repeat to within the RFC 3339 timestamps each sweep
	// journals, whose trailing zeros are trimmed.
	rep.set("journal.kb_per_op", "KiB/op", sum("journal.bytes")/n/1024, len(prefix), "first traced ops")
	if rec := e.recoverMS; len(rec) > 0 {
		rep.set("service.recover_ms", "ms", rec.median(), len(rec), "median of set-ups")
	} else {
		rep.set("service.recover_ms", "ms", 0, 0, "")
	}
	exact("fabric.dispatches_per_op", "count/op", sum("dispatches")/n)
	exact("fabric.retries_per_op", "count/op", sum("retries")/n)
	exact("api.wire_kb_per_op", "KiB/op", sum("wire_bytes")/n/1024)
	timed("fabric.shard_ms")
	dispatch := tr.perSession("fabric.dispatch", (*span).dur)
	shard := tr.perSession("fabric.shard", (*span).dur)
	perSession("fabric.comms_ms", func(s int) (float64, bool) {
		d, ok := dispatch[s]
		return d - shard[s], ok
	})
	perSession("fabric.merge_ms", func(s int) (float64, bool) { return mergeMS(tr, s) })
	rep.set("gc.cpu_share", "ratio", ratio(untraced.gcCPU, untraced.gcCPU+untraced.userCPU), int(perOp), "untraced ops")
	rep.set("gc.cycles_per_op", "count/op", untraced.gcCycles/perOp, int(perOp), "untraced ops")
	rep.set("trace.overhead_ms", "ms", latTraced.median()-lat.median(), len(latTraced),
		fmt.Sprintf("traced %.4f vs untraced %.4f ms median latency (n=%d)", latTraced.median(), lat.median(), len(lat)))

	rep.lines = append(rep.lines, "per-layer self time (span time minus the child spans it encloses):", tr.selfTable())
}

// mergeMS is the time the coordinator spent after its last shard came
// back: Assemble and the merge bookkeeping.
func mergeMS(tr *tracer, session int) (float64, bool) {
	var runEnd, lastDispatch int64
	for _, s := range tr.spans {
		if s.Session != session {
			continue
		}
		switch s.Name {
		case "fabric.run":
			runEnd = s.EndNS
		case "fabric.dispatch":
			if s.EndNS > lastDispatch {
				lastDispatch = s.EndNS
			}
		}
	}
	if runEnd == 0 || lastDispatch == 0 {
		return 0, false
	}
	return float64(runEnd-lastDispatch) / 1e6, true
}

// sortedKeys renders a count map deterministically (fingerprints).
func sortedKeys(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%g ", k, m[k])
	}
	return strings.TrimSpace(b.String())
}
