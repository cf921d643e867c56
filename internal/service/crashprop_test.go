package service

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/greenhpc/archertwin/internal/faultinject"
	"github.com/greenhpc/archertwin/internal/journal"
	"github.com/greenhpc/archertwin/internal/scenario"
)

// TestCrashRecoveryPropertySuite is the durability acceptance property:
// for over a hundred seeded fault plans — each killing the journal
// (cleanly or with a torn write) at a different record ordinal, some
// never firing — a restarted service recovers to results byte-identical
// to an uninterrupted run (per-scenario simulation digests and rendered
// tables), re-simulating exactly the simulations whose results never
// reached the journal and no others. The seed-N subtests run the plain
// crash spec; the fork-seed-N subtests run a checkpoint/fork sweep,
// whose resumed families also replay their shared prefix.
//
// The crash model matches kill -9: whatever the journal committed
// survives, the process's in-memory registry is gone. Each seed is its
// own subtest, so a failing schedule replays from its name alone.
func TestCrashRecoveryPropertySuite(t *testing.T) {
	seeds := 120
	if testing.Short() {
		seeds = 12
	}
	for _, c := range []struct {
		prefix string
		spec   scenario.Spec
	}{{"seed-", crashSpec()}, {"fork-seed-", crashForkSpec()}} {
		spec := c.spec.Canonical()
		part, err := spec.Partition()
		if err != nil {
			t.Fatal(err)
		}
		// The uninterrupted reference run every schedule must reproduce.
		ref, err := (&scenario.Runner{Workers: 1}).Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		// Resumed fork families by missing-branch count: the fork seeds
		// must cover both a shared prefix replay (2+) and a lone cold
		// branch (1).
		resumed := map[int]int{}
		for seed := 0; seed < seeds; seed++ {
			seed := seed
			t.Run(fmt.Sprintf("%s%d", c.prefix, seed), func(t *testing.T) {
				for _, n := range crashAndRecover(t, spec, part, ref, uint64(seed)) {
					resumed[min(n, 2)]++
				}
			})
		}
		if len(spec.Axes.MidFrequency) > 0 && !testing.Short() && (resumed[1] == 0 || resumed[2] == 0) {
			t.Errorf("%s schedules resumed families %v by missing branches; want both 1 and 2+", c.prefix, resumed)
		}
	}
}

// crashForkSpec is the fork-family crash sweep: two frequency families,
// each branching two ways at the divergence day, across two grid means
// that share every simulation — four simulations plus two prefixes.
func crashForkSpec() scenario.Spec {
	return scenario.Spec{
		Name:       "crash-fork",
		Nodes:      32,
		Days:       2,
		DivergeDay: 1,
		Seed:       13,
		Axes: scenario.Axes{
			Frequency:    []string{"stock", "capped"},
			MidFrequency: []string{"none", "capped"},
			GridMean:     []float64{200, 65},
		},
	}
}

// crashAndRecover runs spec under one seeded crash plan, restarts on the
// surviving journal and checks the recovered sweep against ref. It
// returns, per partition group that had to resume, its count of missing
// simulations.
func crashAndRecover(t *testing.T, spec scenario.Spec, part scenario.Partition, ref *scenario.SweepResults, seed uint64) []int {
	ctx := context.Background()
	dir := t.TempDir()
	// A clean run writes 1 submission + len(part.Keys) scenario records
	// + 1 terminal; ordinals beyond that never fire (clean completion —
	// the suite wants those seeds too).
	plan := faultinject.NewCrashPlan(seed, len(part.Keys)+4)

	// Incarnation one: run under the crash plan until it either
	// completes or the journal dies.
	jl1, err := journal.Open(dir, journal.Options{NoSync: true, Crash: plan.Hook()})
	if err != nil {
		t.Fatal(err)
	}
	svc1, err := New(Config{Runner: &scenario.Runner{Workers: 1}, Journal: jl1, MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	sw1, _, submitErr := svc1.Submit(ctx, spec, false)
	if submitErr == nil {
		select {
		case <-sw1.Done():
		case <-time.After(30 * time.Second):
			t.Fatal("first incarnation wedged")
		}
	}
	svc1.Shutdown()
	jl1.Close() // flushes if healthy; a crashed log refuses — either is fine

	// Restart: inventory what actually reached disk, then recover.
	jl2, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer jl2.Close()
	journaled := map[int]bool{}
	if err := jl2.Replay(func(rec journal.Record) error {
		if sd, ok := rec.(*journal.ScenarioDone); ok {
			journaled[sd.Index] = true
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Exactly the simulations with unjournaled scenarios must re-execute
	// on the cold second runner, plus one shared prefix for each fork
	// family with two or more of them (a lone missing branch runs cold).
	missingSims := map[string]bool{}
	familySims := map[string]map[string]bool{}
	for i, key := range part.RunKeys {
		if !journaled[i] {
			missingSims[key] = true
			if familySims[part.Keys[i]] == nil {
				familySims[part.Keys[i]] = map[string]bool{}
			}
			familySims[part.Keys[i]][key] = true
		}
	}
	wantMisses := len(missingSims)
	var resumed []int
	for _, sims := range familySims {
		resumed = append(resumed, len(sims))
		if len(sims) >= 2 && len(spec.Axes.MidFrequency) > 0 {
			wantMisses++
		}
	}

	runner2 := &scenario.Runner{Workers: 1}
	svc2, err := New(Config{Runner: runner2, Journal: jl2, MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Shutdown()
	if _, err := svc2.Recover(ctx); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	var sw2 *Sweep
	if list := svc2.List(); len(list) == 1 {
		sw2, _ = svc2.Get(list[0].ID)
	} else if len(list) == 0 {
		// The crash beat the submission's commit: the client was never
		// acknowledged and retries against the new server.
		if sw2, _, err = svc2.Submit(ctx, spec, false); err != nil {
			t.Fatalf("resubmit after unacknowledged crash: %v", err)
		}
	} else {
		t.Fatalf("recovered %d sweeps, want at most 1", len(list))
	}
	select {
	case <-sw2.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("recovered sweep wedged")
	}
	res, err := sw2.Results()
	if err != nil {
		t.Fatalf("recovered sweep failed (plan fired=%v at=%d torn=%v): %v",
			plan.Fired(), plan.CrashAt, plan.Torn, err)
	}
	if got, want := digestsOf(res), digestsOf(ref); !equalStrings(got, want) {
		t.Errorf("digests %v != reference %v", got, want)
	}
	if got, want := tablesJSON(t, res), tablesJSON(t, ref); got != want {
		t.Errorf("rendered tables differ from reference:\n%s\nvs\n%s", got, want)
	}
	if misses := runner2.CacheStats().Misses; misses != wantMisses {
		t.Errorf("memo misses = %d, want %d (journaled results re-simulated, or missing ones skipped; plan fired=%v at=%d torn=%v)",
			misses, wantMisses, plan.Fired(), plan.CrashAt, plan.Torn)
	}
	return resumed
}
