package main

import (
	"runtime"
	"slices"
	"syscall"
	"unsafe"
)

// probeRefMS is the duration of one hostProbe.run on the reference host,
// a 2-vCPU Xeon VM with go1.24, in a quiet stretch. Timing metrics are
// reported at that host speed: a figure measured while the probe took
// twice as long is halved.
const probeRefMS = 0.7

// hostProbe measures how fast the host runs right now. The machines the
// benchmark runs on are shared: the same single-threaded loop, with no
// steal time in /proc/stat, runs up to 1.8 times slower for stretches of
// tens of seconds to minutes, and that moves whole runs. A probe is a
// fixed piece of work the program under test cannot change: updates to a
// map that never grows and a sort of a fixed slice. It allocates nothing,
// so neither the program's heap nor its garbage collector reaches it.
// Map updates and sorting tracked the program's op latency over such
// stretches far better than a pointer chase or a pure arithmetic loop.
//
// The probe is timed in its thread's CPU time, with the goroutine locked
// to that thread: time the thread spends descheduled, while the
// program's own goroutines or garbage collector hold the CPU, is not
// counted, while a slower CPU still is. Untimed passes come first, so the
// timed ones find the probe's data (about 200 KB) in the core's private
// cache whatever the op before them touched.
type hostProbe struct {
	m        map[int32]int32
	src, buf []int64
}

const (
	probeMapKeys  = 10007
	probeUpdates  = 22000
	probeSortSize = 4500
	probeWarmups  = 2
)

func newHostProbe() *hostProbe {
	p := &hostProbe{
		m:   make(map[int32]int32, probeMapKeys),
		src: make([]int64, probeSortSize),
		buf: make([]int64, probeSortSize),
	}
	for k := int32(0); k < probeMapKeys; k++ {
		p.m[k] = 0
	}
	x := uint64(1)
	for i := range p.src {
		x = x*6364136223846793005 + 1442695040888963407
		p.src[i] = int64(x >> 1)
	}
	return p
}

// run does the probe's work once and returns the thread CPU time it
// took, in ms. The caller holds its OS thread.
func (p *hostProbe) run() float64 {
	t0 := threadCPUNS()
	for i := int32(0); i < probeUpdates; i++ {
		p.m[i*7919%probeMapKeys] += i
	}
	copy(p.buf, p.src)
	slices.Sort(p.buf)
	return float64(threadCPUNS()-t0) / 1e6
}

// sample runs the probe n times after its untimed passes and returns
// the durations.
func (p *hostProbe) sample(n int) samples {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i := 0; i < probeWarmups; i++ {
		p.run()
	}
	out := make(samples, n)
	for i := range out {
		out[i] = p.run()
	}
	return out
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPUNS is the calling thread's CPU time in ns.
func threadCPUNS() int64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + errno.Error())
	}
	return ts.Nano()
}

// scale is the factor that brings a duration measured while the probe
// took these times to the reference host speed.
func probeScale(times samples) float64 {
	return probeRefMS / times.median()
}
