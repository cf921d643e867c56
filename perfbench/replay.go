package main

import (
	"context"
	"fmt"
	"time"

	"github.com/greenhpc/archertwin/internal/core"
)

// goldenReplayDigest is core.DefaultConfig()'s Results.Digest: the full
// 13-month, 5,860-node paper timeline, pinned by the repository's golden
// tests.
const goldenReplayDigest = "f44760aae1702a3dd0820d6d5c6d052a87a4dedf1e6c98e01575e3435a523496"

// paperWindows are the paper's cabinet-power window means (kW) the
// replay is compared against.
var paperWindows = []struct {
	label string
	kw    float64
}{
	{"figure1-baseline", 3220},
	{"figure2-after", 3010},
	{"figure3-after", 2530},
}

// replaySys replays the paper timeline, one full replay per op. The
// inputs are the paper's own configuration whatever the seed: the
// golden digest is the reference every replay is checked against.
type replaySys struct {
	e        *env
	cfg      core.Config
	nodeDays float64
	last     *core.Results // the newest results, live for retained_mb
	windows  []string
}

// replayOut is what a replay op hands to its check.
type replayOut struct {
	res *core.Results
	sim *core.Simulator
}

func setupReplay(ctx context.Context, e *env) (system, error) {
	cfg := core.DefaultConfig()
	// Warm-up: the timeline's first simulated month at full scale,
	// through the same calls.
	warm := cfg.Clone()
	warm.End = warm.Start.AddDate(0, 1, 0)
	warm.Windows = nil
	if _, err := core.RunConfigContext(ctx, warm); err != nil {
		return nil, fmt.Errorf("warm-up replay: %w", err)
	}
	days := cfg.End.Sub(cfg.Start).Hours() / 24
	return &replaySys{e: e, cfg: cfg, nodeDays: float64(cfg.Facility.Nodes) * days}, nil
}

// replayProbeDays is how many simulated days an untraced replay op
// advances between two host probes. A replay takes seconds, and the
// host's speed can change within it.
const replayProbeDays = 12

// op builds the simulator and advances it one simulated day at a time;
// each day's step is one latency sample.
func (r *replaySys) op(ctx context.Context, i int) (opResult, error) {
	tr := r.e.tr
	id := tr.begin("core.new")
	sim, err := core.NewSimulator(r.cfg)
	tr.end(id)
	if err != nil {
		return opResult{}, err
	}
	steps := make(samples, 0, 400)
	id = tr.begin("core.run")
	for t := r.cfg.Start.AddDate(0, 0, 1); t.Before(r.cfg.End); t = t.AddDate(0, 0, 1) {
		t0 := time.Now()
		if err := sim.RunToContext(ctx, t); err != nil {
			return opResult{}, err
		}
		steps = append(steps, float64(time.Since(t0))/1e6)
		if len(steps)%replayProbeDays == 0 {
			r.e.probeNow()
		}
	}
	t0 := time.Now()
	res, err := sim.RunContext(ctx)
	steps = append(steps, float64(time.Since(t0))/1e6)
	tr.end(id)
	if err != nil {
		return opResult{}, err
	}
	r.last = res
	return opResult{out: replayOut{res, sim}, latencies: steps, nodeDays: r.nodeDays}, nil
}

func (r *replaySys) check(ctx context.Context, i int, res opResult) error {
	out := res.out.(replayOut)
	if d := out.res.Digest(); d != goldenReplayDigest {
		return fmt.Errorf("replay digest %s, golden %s", d, goldenReplayDigest)
	}
	if r.windows == nil {
		for _, w := range paperWindows {
			got, ok := out.res.WindowByLabel(w.label)
			if !ok {
				return fmt.Errorf("replay lacks window %s", w.label)
			}
			kw := got.MeanPower.Kilowatts()
			r.windows = append(r.windows, fmt.Sprintf("  paper window %-17s %7.1f kW vs %4.0f kW paper: %+.2f%%",
				w.label, kw, w.kw, 100*(kw-w.kw)/w.kw))
		}
	}
	return nil
}

// shadow counts the replay's simulated work and times what the scenario
// Runner pays per simulation on top of the run itself.
func (r *replaySys) shadow(ctx context.Context, i int, res opResult) error {
	out := res.out.(replayOut)
	tr := r.e.tr
	tr.count("des.events", float64(out.sim.Engine().Fired()))
	countSched(tr, out.res)
	id := tr.begin("core.results")
	_ = out.res.Digest()
	out.res.Compact()
	_ = out.res.MemoryFootprint()
	tr.end(id)
	return nil
}

func (r *replaySys) mayStop() bool       { return true }
func (r *replaySys) fingerprint() string { return "" }
func (r *replaySys) notes() []string     { return r.windows }
func (r *replaySys) close()              {}

// countSched records the scheduler's work counts of one simulation.
func countSched(tr *tracer, res *core.Results) {
	tr.count("sched.jobs_started", float64(res.Sched.StartedJobs))
	tr.count("sched.preemptions", float64(res.Sched.Preemptions))
	tr.count("sched.holds", float64(res.Sched.Holds))
}
