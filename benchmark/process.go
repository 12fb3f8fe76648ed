package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSample is the process-wide accounting the process.* metrics are deltas
// of: CPU time from getrusage, allocation and GC totals from the runtime.
type procSample struct {
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

func sampleProc() procSample {
	var ru syscall.Rusage
	var s procSample
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.allocBytes = ms.Mallocs, ms.TotalAlloc
	s.gcCycles, s.gcPause = ms.NumGC, time.Duration(ms.PauseTotalNs)
	return s
}

// processMetrics turns the accounting of one pass of ops operations into the
// process.* layer metrics.
func processMetrics(before, after procSample, ops int) map[string]float64 {
	n := float64(max(ops, 1))
	return map[string]float64{
		"process.cpu_s_per_kop":      (after.cpu - before.cpu).Seconds() / n * 1000,
		"process.allocs_per_op":      float64(after.mallocs-before.mallocs) / n,
		"process.alloc_bytes_per_op": float64(after.allocBytes-before.allocBytes) / n,
		"process.gc_cycles":          float64(after.gcCycles - before.gcCycles),
		"process.gc_pause_total_ms":  float64(after.gcPause-before.gcPause) / 1e6,
		"process.peak_rss_mb":        peakRSSMB(),
		"process.goroutines_end":     float64(runtime.NumGoroutine()),
	}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) from
// /proc/self/status; 0 where that file does not exist.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// liveHeapMB is the heap still reachable after two collections (the second
// frees what the first's finalizers released), caches and fixtures held.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// fsType names the filesystem holding path (from statfs's magic number).
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x6969:
		return "nfs"
	}
	return "0x" + strconv.FormatUint(uint64(uint32(st.Type)), 16)
}
