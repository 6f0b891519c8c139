package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

// Host-side probes. They read Linux interfaces (getrusage, /proc), so the
// benchmark runs on Linux only.

// peakRSSMB is the process's resident-set high-water mark from getrusage,
// in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// resetPeakRSS resets the kernel's resident-set high-water mark to the
// current RSS, so the next peakRSSMB reads the peak since this call.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// startMeasuring returns freed heap to the kernel and resets the RSS
// high-water mark, so no peak read in the measured phase includes set-up
// memory.
func startMeasuring() error {
	debug.FreeOSMemory()
	return resetPeakRSS()
}

// passPeak reads the RSS peak of the pass that just ended and resets the
// high-water mark for the next one. startMeasuring has shown the reset
// works on the running kernel, so a later failure only leaves the next pass's
// peak at least as high, and is not reported.
func passPeak() float64 {
	mb := peakRSSMB()
	_ = resetPeakRSS()
	return mb
}

// heapSample is the allocation and GC state at one instant.
type heapSample struct {
	allocBytes uint64 // cumulative bytes allocated
	gcCycles   uint32
}

func readHeap() heapSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return heapSample{allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC}
}

// cpuSample is the aggregate CPU line of /proc/stat, in clock ticks.
type cpuSample struct {
	steal, total uint64
}

// readCPU reads the aggregate CPU counters; a host without /proc/stat
// reads as all zeros, and host.steal_frac then reports 0.
func readCPU() cpuSample {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuSample{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuSample{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuSample{}
	}
	var s cpuSample
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user, so it is not added again.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuSample{}
		}
		s.total += v
		if i == 7 {
			s.steal = v
		}
	}
	return s
}

// stealFrac is the share of CPU time the hypervisor gave to other guests
// between two samples.
func stealFrac(a, b cpuSample) float64 {
	return ratio(float64(b.steal-a.steal), float64(b.total-a.total))
}
