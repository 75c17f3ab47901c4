package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// resetPeakRSS clears the process's resident-set high-water mark, so the
// next peakRSSMiB reading covers the workload alone rather than set-up and
// reference runs. It reports whether the kernel accepted the reset.
func resetPeakRSS() bool {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMiB is the resident-set high-water mark since the last reset
// (VmHWM), falling back to the whole-process maximum from getrusage.
func peakRSSMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// goSnap is a reading of the Go runtime counters the per-layer metrics use.
type goSnap struct {
	allocBytes     float64
	gcCPU, userCPU float64
}

var goSnapNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/user:cpu-seconds",
}

func readGo() goSnap {
	s := make([]metrics.Sample, len(goSnapNames))
	for i, n := range goSnapNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return goSnap{allocBytes: val(0), gcCPU: val(1), userCPU: val(2)}
}

// goDelta accumulates runtime counter differences over measured intervals.
type goDelta struct {
	allocBytes, gcCPU, userCPU float64
}

func (d *goDelta) add(a, b goSnap) {
	d.allocBytes += b.allocBytes - a.allocBytes
	d.gcCPU += b.gcCPU - a.gcCPU
	d.userCPU += b.userCPU - a.userCPU
}

// gcShare is the share of the CPU time Go code used that went to the
// garbage collector.
func (d *goDelta) gcShare() float64 { return ratio(d.gcCPU, d.gcCPU+d.userCPU) }

// heapSampler records the peak live-heap size while a traced phase runs,
// sampling the runtime's heap-object bytes every few milliseconds.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, float64(s[0].Value.Uint64()))
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// peakMiB stops the sampler and returns the peak it saw.
func (h *heapSampler) peakMiB() float64 {
	close(h.stop)
	h.wg.Wait()
	return h.peak / (1 << 20)
}

// fsName names the filesystem holding dir, from its statfs magic number.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xef53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x2fc12fc1:
		return "zfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("statfs-0x%x", uint64(st.Type))
}
