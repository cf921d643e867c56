package scenario

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/greenhpc/archertwin/internal/core"
)

// resumeSpec crosses checkpoint/fork families with the carbon axis: six
// partition groups, each a two-branch fork family, and avoided-carbon
// aggregation that only the assembled sweep can compute.
func resumeSpec() Spec {
	return Spec{
		Name:       "resume",
		Nodes:      32,
		Days:       2,
		DivergeDay: 1,
		Seed:       5,
		Axes: Axes{
			Frequency:    []string{"stock", "capped"},
			MidFrequency: []string{"none", "capped"},
			CarbonPolicy: []string{"fcfs", "delay-flexible"},
			GridMean:     []float64{200, 65},
		},
	}
}

// journaled strips a result to what a journal holds: no cross-scenario
// aggregation.
func journaled(res Result) Result {
	res.AvoidedCarbon, res.HasBaseline = 0, false
	return res
}

// sameSweep fails unless got reproduces want byte for byte: results,
// digests, counts and all three rendered tables.
func sameSweep(t *testing.T, label string, got, want *SweepResults) {
	t.Helper()
	if !reflect.DeepEqual(got.Results, want.Results) {
		t.Errorf("%s: results differ from Run", label)
	}
	if got.Simulations != want.Simulations || got.Workers != want.Workers {
		t.Errorf("%s: simulations/workers = %d/%d, Run reports %d/%d",
			label, got.Simulations, got.Workers, want.Simulations, want.Workers)
	}
	for name, pair := range map[string][2]string{
		"delta":  {got.Table().String(), want.Table().String()},
		"regime": {got.RegimeTable().String(), want.RegimeTable().String()},
		"carbon": {got.CarbonTable().String(), want.CarbonTable().String()},
	} {
		if pair[0] != pair[1] {
			t.Errorf("%s: %s table renders differently", label, name)
		}
	}
}

// TestResumeMatchesRun: for every subset of partition groups given as
// done, and for a partly done group, Resume assembles exactly what Run
// does — and executes only the missing simulations.
func TestResumeMatchesRun(t *testing.T) {
	ctx := context.Background()
	spec := resumeSpec()
	ref, err := (&Runner{Workers: 2}).Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	part, err := spec.Partition()
	if err != nil {
		t.Fatal(err)
	}
	groups := len(part.GroupOrder)
	for mask := 0; mask < 1<<groups; mask++ {
		done := map[int]Result{}
		for g, key := range part.GroupOrder {
			if mask&(1<<g) != 0 {
				for _, i := range part.Groups[key] {
					done[i] = journaled(ref.Results[i])
				}
			}
		}
		r := &Runner{Workers: 2}
		got, err := r.Resume(ctx, spec, done, nil, nil)
		if err != nil {
			t.Fatalf("mask %b: %v", mask, err)
		}
		sameSweep(t, fmt.Sprintf("mask %b", mask), got, ref)
		// Each missing group is one family: its branches plus a prefix.
		missing := groups - popcount(mask)
		if want := 3 * missing; r.CacheStats().Misses != want {
			t.Errorf("mask %b: %d simulations executed, want %d", mask, r.CacheStats().Misses, want)
		}
	}

	// A group journaled in part (a torn append): only its other
	// scenarios run, and the lone missing branch runs cold.
	first := part.Groups[part.GroupOrder[0]]
	done := map[int]Result{}
	for _, i := range first[:len(first)-1] {
		done[i] = journaled(ref.Results[i])
	}
	for _, key := range part.GroupOrder[1:] {
		for _, i := range part.Groups[key] {
			done[i] = journaled(ref.Results[i])
		}
	}
	r := &Runner{Workers: 2}
	got, err := r.Resume(ctx, spec, done, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameSweep(t, "partial group", got, ref)
	if m := r.CacheStats().Misses; m != 1 {
		t.Errorf("partial group executed %d simulations, want 1", m)
	}
}

func popcount(x int) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// TestResumeSinksEachMissingGroupOnce: sink receives every partition
// group with missing scenarios exactly once, with exactly its missing
// indices in ascending order and their results; done groups are never
// sunk.
func TestResumeSinksEachMissingGroupOnce(t *testing.T) {
	ctx := context.Background()
	spec := resumeSpec()
	ref, err := (&Runner{Workers: 2}).Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	part, err := spec.Partition()
	if err != nil {
		t.Fatal(err)
	}
	// Group 1 done, group 0 half done, the rest missing.
	done := map[int]Result{}
	for _, i := range part.Groups[part.GroupOrder[1]] {
		done[i] = journaled(ref.Results[i])
	}
	g0 := part.Groups[part.GroupOrder[0]]
	done[g0[0]] = journaled(ref.Results[g0[0]])

	for _, workers := range []int{1, 3} {
		var (
			mu   sync.Mutex
			sunk = map[string]int{}
		)
		sink := func(indices []int, res []Result) error {
			mu.Lock()
			defer mu.Unlock()
			if len(indices) == 0 || len(indices) != len(res) {
				t.Errorf("workers %d: sink got %d indices, %d results", workers, len(indices), len(res))
				return nil
			}
			key := part.Keys[indices[0]]
			sunk[key]++
			var want []int
			for _, i := range part.Groups[key] {
				if _, ok := done[i]; !ok {
					want = append(want, i)
				}
			}
			if !reflect.DeepEqual(indices, want) {
				t.Errorf("workers %d: sink indices %v, want group's missing %v", workers, indices, want)
			}
			for j, i := range indices {
				if !reflect.DeepEqual(res[j], journaled(ref.Results[i])) {
					t.Errorf("workers %d: sunk result %d differs from Run's", workers, i)
				}
			}
			return nil
		}
		got, err := (&Runner{Workers: workers}).Resume(ctx, spec, done, sink, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := *ref
		want.Workers = workers
		sameSweep(t, fmt.Sprintf("workers %d", workers), got, &want)
		for g, key := range part.GroupOrder {
			want := 1
			if g == 1 {
				want = 0
			}
			if sunk[key] != want {
				t.Errorf("workers %d: group %d sunk %d times, want %d", workers, g, sunk[key], want)
			}
		}
	}
}

// TestResumeSinkErrorStopsRun: a failing sink ends the run with its own
// error (not a cancellation), no later group is sunk, and the
// simulations completed so far stay memoized.
func TestResumeSinkErrorStopsRun(t *testing.T) {
	boom := errors.New("disk full")
	var calls atomic.Int32
	sink := func([]int, []Result) error {
		calls.Add(1)
		return boom
	}
	r := &Runner{Workers: 1}
	_, err := r.Resume(context.Background(), resumeSpec(), nil, sink, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("Resume = %v, want the sink's error", err)
	}
	if errors.Is(err, context.Canceled) || strings.Contains(err.Error(), "cancelled") {
		t.Errorf("sink failure reported as a cancellation: %v", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("sink called %d times after failing, want 1", n)
	}
	cs := r.CacheStats()
	if cs.Size == 0 {
		t.Error("completed simulations were not memoized")
	}
	// One family (prefix + two branches) landed before the sink failed;
	// while the sink ran, the single worker could run at most the next
	// prefix and one branch, whose landing then waits on the sink.
	if cs.Misses < 3 || cs.Misses > 5 {
		t.Errorf("%d simulations executed, want one family (3) plus at most two", cs.Misses)
	}
}

// TestResumeProgress: progress counts distinct simulations over the
// whole sweep, done ones included, never decreases, and ends at
// (Simulations, Simulations).
func TestResumeProgress(t *testing.T) {
	ctx := context.Background()
	spec := resumeSpec()
	ref, err := (&Runner{Workers: 2}).Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	part, err := spec.Partition()
	if err != nil {
		t.Fatal(err)
	}
	halfDone := map[int]Result{}
	for _, key := range part.GroupOrder[:3] {
		for _, i := range part.Groups[key] {
			halfDone[i] = journaled(ref.Results[i])
		}
	}
	all := map[int]Result{}
	for i, res := range ref.Results {
		all[i] = journaled(res)
	}
	for name, done := range map[string]map[int]Result{"none": nil, "half": halfDone, "all": all} {
		var (
			mu    sync.Mutex
			calls [][2]int
		)
		progress := func(d, total int) {
			mu.Lock()
			defer mu.Unlock()
			calls = append(calls, [2]int{d, total})
		}
		if _, err := (&Runner{Workers: 3}).Resume(ctx, spec, done, nil, progress); err != nil {
			t.Fatal(err)
		}
		if len(calls) == 0 {
			t.Fatalf("%s done: progress never called", name)
		}
		for k, c := range calls {
			if c[1] != part.Simulations {
				t.Errorf("%s done: call %d total %d, want %d", name, k, c[1], part.Simulations)
			}
			if k > 0 && c[0] < calls[k-1][0] {
				t.Errorf("%s done: progress decreased %v -> %v", name, calls[k-1], c)
			}
		}
		if last := calls[len(calls)-1]; last != [2]int{part.Simulations, part.Simulations} {
			t.Errorf("%s done: final progress %v, want (%d, %d)", name, last, part.Simulations, part.Simulations)
		}
	}
}

// TestResumeRejectsForeignDone: done results that do not belong at
// their index are refused before anything runs.
func TestResumeRejectsForeignDone(t *testing.T) {
	ctx := context.Background()
	spec := tinySpec()
	ok := Result{Scenario: Scenario{Index: 1}, SimDigest: "d"}
	for name, done := range map[string]map[int]Result{
		"out of range": {9: {Scenario: Scenario{Index: 9}, SimDigest: "d"}},
		"misindexed":   {2: ok},
		"no digest":    {1: {Scenario: Scenario{Index: 1}}},
	} {
		var calls atomic.Int32
		r := &Runner{Workers: 1, runCfg: func(context.Context, core.Config) (*core.Results, error) {
			calls.Add(1)
			return nil, errors.New("ran")
		}}
		if _, err := r.Resume(ctx, spec, done, nil, nil); err == nil {
			t.Errorf("%s: Resume accepted %v", name, done)
		}
		if calls.Load() != 0 {
			t.Errorf("%s: simulations ran before the done set was rejected", name)
		}
	}
}

// TestRunnerPoolBoundsConcurrency: however many groups a sweep has, at
// most Workers simulations run at once.
func TestRunnerPoolBoundsConcurrency(t *testing.T) {
	spec := Spec{Nodes: 32, Days: 2, WarmupDays: 1, Axes: Axes{
		Frequency: []string{"stock", "capped", "1.5GHz", "2.0GHz"},
		Scheduler: []string{"fcfs", "backfill"},
	}}
	var inFlight, peak, calls atomic.Int32
	r := &Runner{Workers: 2, runCfg: func(context.Context, core.Config) (*core.Results, error) {
		calls.Add(1)
		n := inFlight.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(5 * time.Millisecond)
		inFlight.Add(-1)
		return nil, errors.New("stop")
	}}
	if _, err := r.Run(context.Background(), spec); err == nil {
		t.Fatal("want the substituted simulations' errors")
	}
	if calls.Load() != 8 {
		t.Errorf("ran %d simulations, want 8", calls.Load())
	}
	if p := peak.Load(); p > 2 {
		t.Errorf("%d simulations ran at once on a 2-worker pool", p)
	}
}

// TestDrainRunsFollowUpsFirst: a task's follow-ups run before tasks not
// yet started.
func TestDrainRunsFollowUpsFirst(t *testing.T) {
	var order []string
	step := func(name string, next ...task) task {
		return func() []task {
			order = append(order, name)
			return next
		}
	}
	drain(context.Background(), 1, []task{step("a", step("a1"), step("a2")), step("b")})
	if got := strings.Join(order, ","); got != "a,a1,a2,b" {
		t.Errorf("order %s, want a,a1,a2,b", got)
	}
}
