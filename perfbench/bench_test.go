package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestExactCountsRepeat is the benchmark's self-test: two traced runs of
// each workload with one seed must pass every check and give identical
// exact work counts (DES events, scheduler counts, memo hits and misses,
// simulations, journal records, fabric dispatches and wire bytes).
func TestExactCountsRepeat(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			if testing.Short() && w.name == "replay" {
				t.Skip("full-scale replay: skipped in -short mode")
			}
			var counts []map[string]float64
			for k := 0; k < 2; k++ {
				rep, err := bench(context.Background(), w, 7, 50*time.Millisecond, newTracer())
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 {
					t.Fatalf("run %d: correct=%v failed=%d: %v", k, rep.Correct, rep.Failed, rep.errors)
				}
				if len(rep.exact) == 0 {
					t.Fatal("no exact counts reported")
				}
				counts = append(counts, rep.exact)
			}
			if !reflect.DeepEqual(counts[0], counts[1]) {
				t.Errorf("exact counts differ between runs of one seed:\n%v\n%v", counts[0], counts[1])
			}
		})
	}
}

// TestPercentileNeedsTail pins the sample-count rule: a percentile is
// reported only with at least ten samples beyond it.
func TestPercentileNeedsTail(t *testing.T) {
	xs := make(samples, 99)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, ok := xs.percentile(0.9); ok {
		t.Error("p90 of 99 samples reported; it has only 9 beyond it")
	}
	xs = append(xs, 99)
	v, ok := xs.percentile(0.9)
	if !ok || math.Abs(v-89.1) > 1e-9 {
		t.Errorf("p90 of 0..99 = %v, %v; want 89.1, true", v, ok)
	}
}

// TestOutputContract checks the last line of a run: one JSON object with
// exactly the keys correct, attempted, failed and metrics.
func TestOutputContract(t *testing.T) {
	var out, errs bytes.Buffer
	code := run([]string{"--workload", "serve-fabric", "--seed", "3", "--seconds", "0.05", "--trace", "0"}, &out, &errs)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range got {
		keys = append(keys, k)
	}
	if len(keys) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Errorf("result keys %v", keys)
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"setup_s", "latency_p50_ms", "node_days_per_s", "alloc_mb", "retained_mb"} {
		if metrics[name] == nil {
			t.Errorf("metric %s missing", name)
		}
	}
	if len(metrics) != 5 {
		t.Errorf("%d metrics, want the 5 end-to-end ones", len(metrics))
	}
	if code := run([]string{"--workload", "nope"}, &out, &errs); code == 0 {
		t.Error("unknown workload exited 0")
	}
}

// TestProbeAllocatesNothing pins what keeps the host probe out of the
// program's reach: it allocates nothing, so the program's heap and
// garbage collector cannot slow it.
func TestProbeAllocatesNothing(t *testing.T) {
	p := newHostProbe()
	if n := testing.AllocsPerRun(20, func() { p.run() }); n != 0 {
		t.Errorf("probe allocates %v times per run", n)
	}
}

// TestTimingsScaleByWindow checks that each window of ops is brought to
// the reference host speed by its own probe times.
func TestTimingsScaleByWindow(t *testing.T) {
	var ts timings
	slow := samples{2 * probeRefMS}
	for i := 0; i < probeWindow; i++ {
		ts.add(samples{10}, slow, 1, 0.01)
	}
	for i := 0; i < probeWindow; i++ {
		ts.add(samples{4}, samples{probeRefMS}, 1, 0.004)
	}
	ts.flush()
	for i, v := range ts.lat {
		want := 5.0
		if i >= probeWindow {
			want = 4
		}
		if v != want {
			t.Fatalf("sample %d scaled to %v, want %v", i, v, want)
		}
	}
	if got, want := ts.nodeDays/ts.busy, 16/(8*0.005+8*0.004); math.Abs(got-want) > 1e-9 {
		t.Errorf("scaled rate %v, want %v", got, want)
	}
	if got := ts.raw.median(); got != 7 {
		t.Errorf("median as timed %v, want 7", got)
	}
}
