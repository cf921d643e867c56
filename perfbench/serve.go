package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/greenhpc/archertwin/internal/api"
	"github.com/greenhpc/archertwin/internal/fabric"
	"github.com/greenhpc/archertwin/internal/journal"
	"github.com/greenhpc/archertwin/internal/rng"
	"github.com/greenhpc/archertwin/internal/scenario"
	"github.com/greenhpc/archertwin/internal/service"
)

// serveWarmups is how many sessions a twinserver set-up runs: enough to
// fill the registry (64 finished sweeps) and the memo (256 simulations),
// and on serve-durable to pass the journal's retention, so that the first
// timed op already finds the server in its steady state.
const serveWarmups = 72

// checkEvery: one session in checkEvery, drawn from the seed, is checked
// against a direct Runner.Run of its spec.
const checkEvery = 8

// serveSpec generates session i's novel sweep: frequency x grid mean x
// carbon policy on 48 nodes over 2 days, where building each simulator
// is most of the cost. grids grid means give 4 x grids scenarios. The
// seed varies the simulations and the grid means; the size is fixed, so
// that every session does about the same work and every memo entry has
// one size.
func serveSpec(seed uint64, label string, i, grids int) scenario.Spec {
	s := rng.New(rng.DeriveSeed(seed, fmt.Sprintf("serve/%s/%d", label, i)))
	spec := scenario.Spec{
		Name:       fmt.Sprintf("bench-%s-%d", label, i),
		Seed:       1 + s.Uint64()>>1,
		Nodes:      48,
		Days:       2,
		WarmupDays: 1,
		Axes: scenario.Axes{
			Frequency:    []string{"stock", "capped"},
			CarbonPolicy: []string{"fcfs", "delay-flexible"},
		},
	}
	for k := 0; k < grids; k++ {
		spec.Axes.GridMean = append(spec.Axes.GridMean, float64(20+s.Intn(231)))
	}
	return spec
}

// serveSys drives a twinserver over HTTP through api.Client: a durable
// server with a journal, or a fabric coordinator in front of one worker
// replica. Each server executes one sweep at a time on a one-worker
// Runner.
type serveSys struct {
	e       *env
	durable bool
	grids   int // grid means per session sweep
	client  *api.Client
	runner  *scenario.Runner // the Runner that simulates
	jl      *journal.Log     // durable only
	stops   []func()
	fp      map[string]float64
	// The journal's rotation cycle over the timed window (durable only):
	// the active segment's size when the window started and after the
	// latest op, the rotations since, and whether the latest op brought
	// the journal back to its starting phase.
	cycleStart, lastSize int64
	rotations, cycles    int
	cycleEnd             bool
}

type serveOut struct {
	spec                scenario.Spec
	submit, repeat, got *api.ResultsPayload
}

// newClient returns an api.Client factory over a dedicated transport;
// when tracing, each round trip is counted, and timed as a span when
// span is set.
func (s *serveSys) newClient(span, countPath string) func(string) *api.Client {
	transport := &http.Transport{MaxIdleConnsPerHost: 4}
	s.stops = append(s.stops, transport.CloseIdleConnections)
	var rt http.RoundTripper = transport
	if s.e.tr != nil {
		rt = &countingTransport{base: transport, tr: s.e.tr, name: span, countPath: countPath}
	}
	return func(url string) *api.Client {
		c := api.NewClient(url)
		c.HTTPClient = &http.Client{Transport: rt}
		return c
	}
}

// serve starts an httptest server for h, timed by the tracer as name.
func (s *serveSys) serve(name string, h http.Handler) *httptest.Server {
	if s.e.tr != nil {
		h = tracedHandler(s.e.tr, name, h)
	}
	srv := httptest.NewServer(h)
	s.stops = append(s.stops, srv.Close)
	return srv
}

func (s *serveSys) close() {
	for k := len(s.stops) - 1; k >= 0; k-- {
		s.stops[k]()
	}
	s.stops = nil
}

// startDurable opens the journal in dir and serves a durable service
// over it, recovering whatever the journal holds; it returns what
// recovery found and how long Service.Recover took.
func (s *serveSys) startDurable(ctx context.Context, dir string) (service.RecoveryStats, time.Duration, error) {
	// The journal skips fsync: the figure measures the journal's
	// framing, CRC, JSON and group-commit work, not the disk.
	jl, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		return service.RecoveryStats{}, 0, err
	}
	s.stops = append(s.stops, func() { _ = jl.Close() })
	s.jl = jl
	s.runner = &scenario.Runner{Workers: 1}
	svc, err := service.New(service.Config{Runner: s.runner, Journal: jl, MaxConcurrent: 1})
	if err != nil {
		return service.RecoveryStats{}, 0, err
	}
	s.stops = append(s.stops, svc.Shutdown)
	t0 := time.Now()
	stats, err := svc.Recover(ctx)
	took := time.Since(t0)
	if err != nil {
		return stats, took, err
	}
	srv := s.serve("service.http", service.NewHandler(svc))
	s.client = s.newClient("", "")(srv.URL)
	return stats, took, nil
}

// setupDurable starts a durable server on a fresh journal, runs the
// warm-up sessions, stops it and restarts over its journal, so set-up
// includes a real recovery.
func setupDurable(ctx context.Context, e *env) (system, error) {
	// Sixteen-scenario sessions journal about 15 KB each, so the 64
	// sweeps that follow a rotation, each re-scanning the sealed
	// segment in compaction, are about 23% of a cycle: the p90 lies well
	// inside that stretch rather than on its edge.
	s := &serveSys{e: e, durable: true, grids: 4, fp: map[string]float64{}}
	dir := filepath.Join(e.dir, fmt.Sprintf("journal-%d", e.rep))
	if _, _, err := s.startDurable(ctx, dir); err != nil {
		s.close()
		return nil, err
	}
	if err := s.warmup(ctx, serveWarmups); err != nil {
		s.close()
		return nil, err
	}
	s.fp["journal.records"] = float64(s.jl.Appended())
	s.close()
	stats, took, err := s.startDurable(ctx, dir)
	if err != nil {
		s.close()
		return nil, fmt.Errorf("restart: %w", err)
	}
	e.recoverMS = append(e.recoverMS, float64(took)/1e6)
	if stats.Finished == 0 || stats.Resumed != 0 {
		s.close()
		return nil, fmt.Errorf("recovered %d finished and %d resumed sweeps, want only finished ones", stats.Finished, stats.Resumed)
	}
	s.fp["recovered"] = float64(stats.Sweeps)
	s.fp["reused_results"] = float64(stats.ReusedResults)
	if err := s.client.Health(ctx); err != nil {
		s.close()
		return nil, err
	}
	s.cycleStart = s.jl.Size()
	s.lastSize = s.cycleStart
	return s, nil
}

// setupFabric starts one single-slot worker replica and a coordinator in
// front of it, and runs the warm-up sessions.
func setupFabric(ctx context.Context, e *env) (system, error) {
	s := &serveSys{e: e, grids: 2, fp: map[string]float64{}}
	s.runner = &scenario.Runner{Workers: 1}
	wsvc, err := service.New(service.Config{Runner: s.runner, MaxConcurrent: 1})
	if err != nil {
		return nil, err
	}
	s.stops = append(s.stops, wsvc.Shutdown)
	worker := s.serve("fabric.shard", service.NewHandler(wsvc))

	coord := fabric.New(fabric.Config{
		NewClient: s.newClient("fabric.dispatch", api.PathPrefix+"/shards"),
		WorkerTTL: -1, // the worker joins once and never heartbeats
	})
	coord.Join(worker.URL)
	run := coord.Run
	if tr := e.tr; tr != nil {
		run = func(ctx context.Context, spec scenario.Spec, progress func(done, total int)) (*scenario.SweepResults, error) {
			id := tr.begin("fabric.run")
			defer tr.end(id)
			return coord.Run(ctx, spec, progress)
		}
	}
	csvc, err := service.New(service.Config{Run: run, MaxConcurrent: 1})
	if err != nil {
		s.close()
		return nil, err
	}
	s.stops = append(s.stops, csvc.Shutdown)
	front := s.serve("service.http", fabric.Handler(coord, service.NewHandler(csvc)))
	s.client = s.newClient("", "")(front.URL)
	if err := s.warmup(ctx, serveWarmups); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// warmupProbeEvery is how many warm-up sessions run between two host
// probes.
const warmupProbeEvery = 4

func (s *serveSys) warmup(ctx context.Context, n int) error {
	for j := 0; j < n; j++ {
		if j%warmupProbeEvery == 0 {
			s.e.probeNow()
		}
		out, err := s.session(ctx, serveSpec(s.e.seed, "warmup", j, s.grids))
		if err != nil {
			return fmt.Errorf("warm-up session %d: %w", j, err)
		}
		s.fp["simulations"] += float64(out.submit.Simulations)
	}
	cs := s.runner.CacheStats()
	s.fp["memo.hits"], s.fp["memo.misses"] = float64(cs.Hits), float64(cs.Misses)
	return nil
}

// session is one closed-loop client session. Durable: submit a novel
// sweep and wait for it, re-submit the same spec (a registry dedup join,
// no simulation), fetch the results by ID. Fabric: submit and wait.
func (s *serveSys) session(ctx context.Context, spec scenario.Spec) (*serveOut, error) {
	tr := s.e.tr
	out := &serveOut{spec: spec}
	var err error
	id := tr.begin("api.submit")
	out.submit, err = s.client.SubmitSweepWait(ctx, spec)
	tr.end(id)
	if err != nil || !s.durable {
		return out, err
	}
	id = tr.begin("api.repeat")
	out.repeat, err = s.client.SubmitSweepWait(ctx, spec)
	tr.end(id)
	if err != nil {
		return out, err
	}
	id = tr.begin("api.results")
	out.got, err = s.client.Results(ctx, out.submit.ID)
	tr.end(id)
	return out, err
}

func (s *serveSys) op(ctx context.Context, i int) (opResult, error) {
	// Traced ops read the work counters around the session.
	tr := s.e.tr
	traced := tr.recording()
	var (
		recs  int64
		files map[string]int64
		cs    scenario.CacheStats
	)
	if traced {
		cs = s.runner.CacheStats()
		if s.jl != nil {
			recs, files = s.jl.Appended(), segmentSizes(s.jl.Dir())
		}
	}
	out, err := s.session(ctx, serveSpec(s.e.seed, "op", i, s.grids))
	if err != nil {
		return opResult{}, err
	}
	if s.jl != nil {
		size := s.jl.Size()
		if size < s.lastSize {
			s.rotations++
		}
		s.lastSize = size
		s.cycleEnd = s.rotations > s.cycles && size >= s.cycleStart
		if s.cycleEnd {
			s.cycles++
		}
	}
	if traced {
		if s.jl != nil {
			tr.count("journal.records", float64(s.jl.Appended()-recs))
			tr.count("journal.bytes", float64(appended(files, segmentSizes(s.jl.Dir()))))
		}
		after := s.runner.CacheStats()
		tr.count("memo.hits", float64(after.Hits-cs.Hits))
		tr.count("memo.misses", float64(after.Misses-cs.Misses))
		tr.count("memo.bytes", float64(after.Bytes))
		tr.count("sims", float64(out.submit.Simulations))
		tr.count("scenarios", float64(len(out.submit.Results)))
	}
	nodeDays := float64(out.submit.Simulations * out.submit.Spec.Nodes * out.submit.Spec.Days)
	return opResult{out: out, nodeDays: nodeDays}, nil
}

func (s *serveSys) check(ctx context.Context, i int, res opResult) error {
	out := res.out.(*serveOut)
	if s.durable {
		if out.repeat.ID != out.submit.ID || out.got.ID != out.submit.ID {
			return fmt.Errorf("re-submission and fetch answered sweeps %s and %s for %s", out.repeat.ID, out.got.ID, out.submit.ID)
		}
		if err := sameJSON("repeat", served(out.repeat), served(out.submit)); err != nil {
			return err
		}
		if err := sameJSON("fetched results", served(out.got), served(out.submit)); err != nil {
			return err
		}
	}
	if rng.DeriveSeed(s.e.seed, fmt.Sprintf("check/%d", i))%checkEvery != 0 {
		return nil
	}
	direct, err := (&scenario.Runner{Workers: 1}).Run(ctx, out.spec)
	if err != nil {
		return fmt.Errorf("direct reference: %w", err)
	}
	return matchDirect(direct, out.submit)
}

// shadow times a direct Runner.Run of the same spec (the service's
// overhead is the submit time beyond it) and the core layer's calls.
func (s *serveSys) shadow(ctx context.Context, i int, res opResult) error {
	out := res.out.(*serveOut)
	tr := s.e.tr
	id := tr.begin("scenario.direct")
	direct, err := (&scenario.Runner{Workers: 1}).Run(ctx, out.spec)
	tr.end(id)
	if err != nil {
		return err
	}
	if err := matchDirect(direct, out.submit); err != nil {
		return err
	}
	return decompose(ctx, tr, out.spec, direct)
}

// matchDirect checks a served payload against a direct run: every
// scenario result and every rendered table.
func matchDirect(direct *scenario.SweepResults, p *api.ResultsPayload) error {
	if err := sameJSON("results", p.Results, direct.Results); err != nil {
		return err
	}
	got := served(p)
	tables := []struct {
		name      string
		got, want string
	}{
		{"delta table", got.Table().String(), direct.Table().String()},
		{"regime table", got.RegimeTable().String(), direct.RegimeTable().String()},
	}
	if direct.CarbonSwept() {
		tables = append(tables, struct {
			name      string
			got, want string
		}{"carbon table", got.CarbonTable().String(), direct.CarbonTable().String()})
	}
	for _, t := range tables {
		if t.got != t.want {
			return fmt.Errorf("served %s differs from a direct run:\n%s\nwant:\n%s", t.name, t.got, t.want)
		}
	}
	return nil
}

// served rebuilds the sweep a payload carries, the way cmd/sweep -server
// renders it; the payload's own tables decode to empty values.
func served(p *api.ResultsPayload) *scenario.SweepResults {
	return &scenario.SweepResults{Spec: p.Spec, Results: p.Results, Simulations: p.Simulations, Workers: p.Workers}
}

func sameJSON(what string, got, want any) error {
	g, err := json.Marshal(got)
	if err != nil {
		return err
	}
	w, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if string(g) != string(w) {
		return fmt.Errorf("%s differ from the reference", what)
	}
	return nil
}

// segmentSizes lists the journal's segment files and their sizes.
func segmentSizes(dir string) map[string]int64 {
	out := map[string]int64{}
	entries, _ := os.ReadDir(dir) // an unreadable directory counts as empty
	for _, e := range entries {
		if info, err := e.Info(); err == nil && strings.HasPrefix(e.Name(), "journal-") {
			out[e.Name()] = info.Size()
		}
	}
	return out
}

// appended is how many bytes the journal wrote between two listings:
// segments only grow until compaction unlinks them, so each present
// segment contributes its growth, and a new one its whole size.
func appended(before, after map[string]int64) int64 {
	var n int64
	for name, size := range after {
		n += size - before[name]
	}
	return n
}

// mayStop: a durable run ends only once the journal is back at the phase
// of its rotation cycle where the window started, so that every run
// meets the same share of rotation and compaction work.
func (s *serveSys) mayStop() bool { return s.jl == nil || s.cycleEnd }

func (s *serveSys) fingerprint() string { return sortedKeys(s.fp) }
func (s *serveSys) notes() []string     { return nil }
