package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is one or two unlucky ops, not a tail.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. It
// refuses when fewer than minBeyond samples lie strictly beyond the rank,
// so p90 needs at least 100 samples.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g of no samples", 100*p)
	}
	rank := nearestRank(p, n)
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("percentile p%g rule: %d of %d samples lie beyond it, need %d",
			100*p, beyond, n, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// nearestRank is the 1-based rank of the p-quantile of n samples.
func nearestRank(p float64, n int) int {
	return max(int(math.Ceil(p*float64(n))), 1)
}

// median is the middle value (mean of the middle two for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// geomean is the geometric mean of positive values; averaging ratios any
// other way lets one large row dominate.
func geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("geomean of no rows")
	}
	var sum float64
	for i, x := range xs {
		if !(x > 0) {
			return 0, fmt.Errorf("geomean: row %d is %g, need > 0", i, x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// cpuTime is a process's accumulated user and system CPU time.
type cpuTime struct{ user, sys time.Duration }

func readCPU() cpuTime {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuTime{}
	}
	return cpuTime{
		user: time.Duration(ru.Utime.Nano()),
		sys:  time.Duration(ru.Stime.Nano()),
	}
}

// cpuMsPerOp is the user+sys CPU spent between two rusage readings,
// divided over ops, in milliseconds.
func cpuMsPerOp(before, after cpuTime, ops int) float64 {
	if ops <= 0 {
		return 0
	}
	d := (after.user - before.user) + (after.sys - before.sys)
	return float64(d) / float64(time.Millisecond) / float64(ops)
}

// cpuTicks is the machine-wide "cpu" line of /proc/stat: total jiffies
// and the share the hypervisor stole.
type cpuTicks struct{ total, steal uint64 }

func readTicks() cpuTicks {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTicks{}
	}
	return parseTicks(sc.Text())
}

// parseTicks reads "cpu user nice system idle iowait irq softirq steal
// guest guest_nice". Guest time is already counted in user and nice, so
// the total stops at steal.
func parseTicks(line string) cpuTicks {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		t.total += v
	}
	t.steal, _ = strconv.ParseUint(f[8], 10, 64)
	return t
}

// stealPct is the share of machine CPU time stolen between two readings.
func stealPct(before, after cpuTicks) float64 {
	if after.total <= before.total {
		return 0
	}
	return 100 * float64(after.steal-before.steal) / float64(after.total-before.total)
}
