package main

import (
	"math"

	"github.com/greenhpc/archertwin/internal/stats"
)

// samples is one timing series of a run.
type samples []float64

func (s samples) median() float64 { return stats.Median(s) }

// percentile is the q-quantile (0 < q < 1), interpolated as
// stats.Percentile does. ok is false unless at least minTail samples lie
// beyond it: a p90 drawn from fewer is little more than the maximum.
func (s samples) percentile(q float64) (v float64, ok bool) {
	n := len(s)
	if n == 0 || n-int(math.Ceil(q*float64(n)-1e-9)) < minTail {
		return math.NaN(), false
	}
	return stats.Percentile(s, 100*q), true
}

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// timings gathers the untraced ops' latencies at the reference host
// speed (see hostProbe). Ops are taken in short windows of consecutive
// ops, each holding at least probeWindow probe times, and every sample
// of a window is scaled by the median probe time of that window: the
// host's speed can change from one second to the next, and a statistic
// is then taken over all the scaled samples of the run.
type timings struct {
	lat, raw      samples // latency samples: scaled, and as timed
	probe         samples // every probe time of the run
	nodeDays      float64
	busy, rawBusy float64 // op time in s: scaled, and as timed

	// The open window.
	winLat, winProbe samples
	winBusy          float64
}

// probeWindow is how many probe times a window needs before it closes.
const probeWindow = 8

func (t *timings) add(lat, probe samples, nodeDays, busy float64) {
	t.raw = append(t.raw, lat...)
	t.nodeDays += nodeDays
	t.rawBusy += busy
	t.winLat = append(t.winLat, lat...)
	t.winProbe = append(t.winProbe, probe...)
	t.winBusy += busy
	if len(t.winProbe) >= probeWindow {
		t.flush()
	}
}

// flush closes the open window.
func (t *timings) flush() {
	if len(t.winProbe) == 0 {
		return
	}
	scale := probeScale(t.winProbe)
	for _, v := range t.winLat {
		t.lat = append(t.lat, v*scale)
	}
	t.busy += t.winBusy * scale
	t.probe = append(t.probe, t.winProbe...)
	t.winLat, t.winProbe, t.winBusy = nil, nil, 0
}
