package scenario

// This file is the sweep fabric's view of a spec: how an expanded grid
// partitions into shard-affinity groups (Partition) and how per-shard
// results merge back into one SweepResults (Assemble). Both sides are
// pure functions of the canonical spec, so a coordinator and its
// workers agree on scenario identity without ever shipping expanded
// scenarios over the wire — only indices travel.

import "fmt"

// Partition describes how a sweep's expanded grid shards across
// replicas.
type Partition struct {
	// Keys holds, per expanded scenario, the canonical key of the
	// simulation prefix it shares (Scenario simKey): the consistent-hash
	// affinity key. Scenarios with equal keys share a simulation — or a
	// checkpoint/fork family — so a partitioner must keep them on one
	// replica to preserve the sharing; hashing the key does exactly that,
	// and also lands repeat traffic for the same configuration on the
	// replica whose memo is already warm.
	Keys []string
	// RunKeys holds, per expanded scenario, the key of its distinct
	// simulation *results* (simKey plus any mid-sweep divergence):
	// scenarios sharing a run key are one unit of work.
	RunKeys []string
	// Groups maps each affinity key to the ascending scenario indices
	// sharing it.
	Groups map[string][]int
	// GroupOrder lists the affinity keys in first-appearance (expansion)
	// order, so iteration over Groups can be deterministic.
	GroupOrder []string
	// Simulations is the number of distinct simulations the whole sweep
	// needs (distinct run keys) — the denominator a coordinator reports
	// progress against, matching a single-process run's Simulations.
	Simulations int
}

// Partition expands and validates the spec and returns its sharding
// structure.
func (s Spec) Partition() (Partition, error) {
	scenarios, err := s.Expand()
	if err != nil {
		return Partition{}, err
	}
	p := Partition{
		Keys:    make([]string, len(scenarios)),
		RunKeys: make([]string, len(scenarios)),
		Groups:  make(map[string][]int, len(scenarios)),
	}
	runKeys := map[string]bool{}
	for i, sc := range scenarios {
		key := sc.simKey()
		p.Keys[i] = key
		p.RunKeys[i] = sc.runKey()
		if _, seen := p.Groups[key]; !seen {
			p.GroupOrder = append(p.GroupOrder, key)
		}
		p.Groups[key] = append(p.Groups[key], i)
		runKeys[sc.runKey()] = true
	}
	p.Simulations = len(runKeys)
	return p, nil
}

// Assemble merges per-scenario results — typically gathered from shard
// replicas — into one SweepResults, recomputing the cross-scenario
// aggregation (avoided carbon against each scenario's baseline-policy
// counterpart) that no single shard could see. results must hold
// exactly one entry per expanded scenario, in expansion order, as
// produced by Runner.RunScenarios; workers records the replica count
// for reporting.
//
// Determinism contract: for results gathered from RunScenarios slices
// at any shard count, the assembled SweepResults — per-scenario values,
// simulation digests, and every rendered table — is byte-identical to a
// single-process Runner.Run of the same spec.
func Assemble(spec Spec, results []Result, workers int) (*SweepResults, error) {
	scenarios, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	if len(results) != len(scenarios) {
		return nil, fmt.Errorf("scenario: assembling %d results against %d expanded scenarios",
			len(results), len(scenarios))
	}
	return assemble(spec, scenarios, results, workers)
}

// assemble finishes a sweep whose per-scenario results are all in hand,
// aligned with its expansion: it checks each result belongs at its
// index and recomputes the cross-scenario aggregation, clearing whatever
// a partial view may have left.
func assemble(spec Spec, scenarios []Scenario, results []Result, workers int) (*SweepResults, error) {
	runKeys := map[string]bool{}
	for i, sc := range scenarios {
		if err := checkResult(i, results[i]); err != nil {
			return nil, err
		}
		runKeys[sc.runKey()] = true
		results[i].AvoidedCarbon = 0
		results[i].HasBaseline = false
	}
	spec = spec.withDefaults()
	fillAvoidedCarbon(spec, scenarios, results)
	return &SweepResults{Spec: spec, Results: results, Simulations: len(runKeys), Workers: workers}, nil
}

// checkResult rejects a result that does not belong at expansion index
// i: one carrying another scenario's index, or no simulation digest.
func checkResult(i int, res Result) error {
	if res.Scenario.Index != i {
		return fmt.Errorf("scenario: result %d carries scenario index %d", i, res.Scenario.Index)
	}
	if res.SimDigest == "" {
		return fmt.Errorf("scenario: result %d (%s) lacks a simulation digest", i, res.Scenario.Name)
	}
	return nil
}
