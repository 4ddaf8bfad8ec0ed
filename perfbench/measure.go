package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile by linear interpolation between the
// closest ranks; 0 for no values.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	kb := procField("/proc/self/status", "VmHWM")
	return kb / 1024
}

// ioCounters are the process's cumulative I/O counters from
// /proc/self/io: wchar counts every byte handed to write(2), sockets
// included; writeBytes counts only bytes sent to storage.
type ioCounters struct{ wchar, writeBytes float64 }

func readIO() ioCounters {
	return ioCounters{
		wchar:      procField("/proc/self/io", "wchar"),
		writeBytes: procField("/proc/self/io", "write_bytes"),
	}
}

// procField reads the first number after "key:" in a /proc file; 0 when
// the file or key is missing.
func procField(path, key string) float64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || k != key {
			continue
		}
		fields := strings.Fields(v)
		if len(fields) == 0 {
			return 0
		}
		n, _ := strconv.ParseFloat(fields[0], 64)
		return n
	}
	return 0
}

// hostCPU is the machine-wide CPU time split from the "cpu" line of
// /proc/stat: user, nice, system, idle, iowait, irq, softirq, steal.
type hostCPU [8]float64

func readHostCPU() hostCPU {
	var h hostCPU
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return h
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		if i == len(h) {
			break
		}
		h[i], _ = strconv.ParseFloat(f, 64)
	}
	return h
}

// since describes the host's CPU use between h0 and h, for reading a
// run's figures: time stolen by other guests and I/O waits slow every
// workload without any change to the program.
func (h hostCPU) since(h0 hostCPU) string {
	var total float64
	for i := range h {
		total += h[i] - h0[i]
	}
	if total <= 0 {
		return "host CPU shares unavailable"
	}
	share := func(i int) float64 { return 100 * (h[i] - h0[i]) / total }
	return fmt.Sprintf("host CPU during the run: user %.1f%%, system %.1f%%, idle %.1f%%, iowait %.1f%%, steal %.1f%%",
		share(0)+share(1), share(2), share(3), share(4), share(7))
}

// cpuSeconds returns the user plus system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// setupClock times repeated set-ups: the first one starts at process
// start, each later one when it begins.
type setupClock struct{ times []float64 }

// run times one set-up; the run's first is charged from process start.
func (c *setupClock) run(setup func() error) error {
	start := time.Now()
	if len(c.times) == 0 {
		start = processStart
	}
	err := setup()
	c.times = append(c.times, time.Since(start).Seconds())
	return err
}
