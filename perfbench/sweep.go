package main

import (
	"context"
	"fmt"

	"github.com/greenhpc/archertwin/internal/core"
	"github.com/greenhpc/archertwin/internal/rng"
	"github.com/greenhpc/archertwin/internal/scenario"
)

// sweepWarmups is how many sessions a sweep set-up runs.
const sweepWarmups = 3

// sweepSpecs generates session i's cold sweep and its extension from the
// seed. The cold sweep is DefaultSpec-sized (200 nodes, 28 days) over
// frequency x grid mean x mid_frequency, so common-random-number sharing
// and checkpoint/fork both do work; the extension adds one grid value and
// one frequency value, so the memo serves the old groups beside new ones.
func sweepSpecs(seed uint64, label string, i int) (base, ext scenario.Spec) {
	s := rng.New(rng.DeriveSeed(seed, fmt.Sprintf("sweep/%s/%d", label, i)))
	grid := func() float64 { return float64(20 + s.Intn(231)) }
	base = scenario.Spec{
		Name:       fmt.Sprintf("bench-%s-%d", label, i),
		Seed:       1 + s.Uint64()>>1,
		DivergeDay: 14,
		Axes: scenario.Axes{
			Frequency:    []string{"stock", "capped"},
			GridMean:     []float64{grid(), grid()},
			MidFrequency: []string{"none", "1.5GHz"},
		},
	}
	ext = base
	ext.Axes.Frequency = []string{"stock", "capped", "1.5GHz"}
	ext.Axes.GridMean = append(append([]float64(nil), base.Axes.GridMean...), grid())
	return base, ext
}

// sweepSys runs in-process sweeps the way cmd/sweep does: a cold sweep
// on a fresh Runner, then its extension on the same Runner. Like
// cmd/sweep at exit, it keeps one session live, with its Runner and
// results: session 0's, which is fixed for a given seed, so retained_mb
// does not depend on how many sessions the time allowed.
type sweepSys struct {
	e     *env
	fp    map[string]float64
	first *sweepOut
}

type sweepOut struct {
	base, ext   *scenario.SweepResults
	runner      *scenario.Runner
	baseSpec    scenario.Spec
	extSpec     scenario.Spec
	sims, scens int
}

func setupSweep(ctx context.Context, e *env) (system, error) {
	s := &sweepSys{e: e, fp: map[string]float64{}}
	for j := 0; j < sweepWarmups; j++ {
		base, ext := sweepSpecs(e.seed, "warmup", j)
		out, err := s.session(ctx, base, ext)
		if err != nil {
			return nil, fmt.Errorf("warm-up session %d: %w", j, err)
		}
		cs := out.runner.CacheStats()
		s.fp["hits"] += float64(cs.Hits)
		s.fp["misses"] += float64(cs.Misses)
		s.fp["sims"] += float64(out.sims)
	}
	return s, nil
}

func (s *sweepSys) session(ctx context.Context, base, ext scenario.Spec) (*sweepOut, error) {
	tr := s.e.tr
	r := &scenario.Runner{Workers: 1}
	id := tr.begin("scenario.base")
	b, err := r.Run(ctx, base)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("scenario.extend")
	x, err := r.Run(ctx, ext)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	return &sweepOut{base: b, ext: x, runner: r, baseSpec: base, extSpec: ext,
		sims: b.Simulations + x.Simulations, scens: len(b.Results) + len(x.Results)}, nil
}

func (s *sweepSys) op(ctx context.Context, i int) (opResult, error) {
	base, ext := sweepSpecs(s.e.seed, "op", i)
	out, err := s.session(ctx, base, ext)
	if err != nil {
		return opResult{}, err
	}
	if i == 0 {
		s.first = out
	}
	nodes := float64(out.base.Spec.Nodes * out.base.Spec.Days)
	return opResult{out: out, nodeDays: float64(out.runner.CacheStats().Misses) * nodes}, nil
}

// check: the extension must serve every old scenario with the digest the
// cold sweep computed, and the first session must match a NoFork cold
// run scenario by scenario.
func (s *sweepSys) check(ctx context.Context, i int, res opResult) error {
	out := res.out.(*sweepOut)
	old := map[string]string{}
	for _, r := range out.base.Results {
		old[r.Scenario.Name] = r.SimDigest
	}
	for _, r := range out.ext.Results {
		if d, ok := old[r.Scenario.Name]; ok && d != r.SimDigest {
			return fmt.Errorf("extension scenario %q digest %s, cold sweep %s", r.Scenario.Name, r.SimDigest, d)
		}
	}
	if i != 0 {
		return nil
	}
	cold := &scenario.Runner{Workers: 1, NoFork: true}
	for _, pair := range []struct {
		spec scenario.Spec
		got  *scenario.SweepResults
	}{{out.baseSpec, out.base}, {out.extSpec, out.ext}} {
		want, err := cold.Run(ctx, pair.spec)
		if err != nil {
			return fmt.Errorf("NoFork reference: %w", err)
		}
		if err := sameDigests(want, pair.got); err != nil {
			return fmt.Errorf("against a NoFork cold run: %w", err)
		}
	}
	return nil
}

func (s *sweepSys) shadow(ctx context.Context, i int, res opResult) error {
	out := res.out.(*sweepOut)
	tr := s.e.tr
	cs := out.runner.CacheStats()
	tr.count("sims", float64(out.sims))
	tr.count("scenarios", float64(out.scens))
	tr.count("memo.hits", float64(cs.Hits))
	tr.count("memo.misses", float64(cs.Misses))
	tr.count("memo.bytes", float64(cs.Bytes))
	return decompose(ctx, tr, out.extSpec, out.ext)
}

func (s *sweepSys) mayStop() bool       { return true }
func (s *sweepSys) fingerprint() string { return sortedKeys(s.fp) }
func (s *sweepSys) notes() []string     { return nil }
func (s *sweepSys) close()              {}

// sameDigests compares two sweeps scenario by scenario.
func sameDigests(want, got *scenario.SweepResults) error {
	if len(want.Results) != len(got.Results) {
		return fmt.Errorf("%d scenarios, want %d", len(got.Results), len(want.Results))
	}
	for k := range want.Results {
		if w, g := want.Results[k].SimDigest, got.Results[k].SimDigest; w != g {
			return fmt.Errorf("scenario %d (%s) digest %s, want %s", k, want.Results[k].Scenario.Name, g, w)
		}
	}
	return nil
}

// decompose times the core layer of a sweep by building and running
// each distinct simulation of spec directly, cold, and checks that each
// reproduces the digest the sweep served. Fork branches run cold here,
// so core.run_ms on a forking sweep is the cold cost.
func decompose(ctx context.Context, tr *tracer, spec scenario.Spec, got *scenario.SweepResults) error {
	part, err := spec.Partition()
	if err != nil {
		return err
	}
	scens, err := spec.Expand()
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	for k, sc := range scens {
		if seen[part.RunKeys[k]] {
			continue
		}
		seen[part.RunKeys[k]] = true
		cfg, _, err := sc.BuildConfig(spec)
		if err != nil {
			return err
		}
		id := tr.begin("core.new")
		sim, err := core.NewSimulator(cfg)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("core.run")
		res, err := sim.RunContext(ctx)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("core.results")
		digest := res.Digest()
		res.Compact()
		_ = res.MemoryFootprint()
		tr.end(id)
		if want := got.Results[k].SimDigest; digest != want {
			return fmt.Errorf("direct simulation of scenario %d digest %s, sweep served %s", k, digest, want)
		}
		tr.count("des.events", float64(sim.Engine().Fired()))
		countSched(tr, res)
	}
	return nil
}
