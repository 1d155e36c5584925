//go:build unix

package main

import (
	"os"
	"runtime"
	"syscall"
)

// cpuSeconds is the user+system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the exited child's ru_maxrss in MB (the kernel reports
// KB on Linux, bytes on Darwin).
func peakRSSMB(st *os.ProcessState) float64 {
	ru, ok := st.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	if runtime.GOOS == "darwin" {
		return float64(ru.Maxrss) / 1e6
	}
	return float64(ru.Maxrss) / 1e3
}
