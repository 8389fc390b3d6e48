package main

// The benchmark runs in a virtual machine whose host may deschedule its
// CPUs to run other guests; the kernel counts that time as "steal" in
// /proc/stat. It is neither the program's work nor its waiting, and it
// varies from run to run with the neighbours' load, so the benchmark takes
// it out where it can: a stretch of length t during which a share s of all
// CPU time was stolen counts as t·(1−s). That applies to throughput
// windows, to set-ups and to ops long enough to span many 10 ms scheduler
// ticks (a whole evaluation); it does not apply to the latency of a short
// request, which a steal either hits whole or misses.

import (
	"bufio"
	"os"
	"strconv"
	"strings"
)

// cpuStat is the machine-wide CPU accounting: all jiffies, and those stolen.
type cpuStat struct{ total, steal uint64 }

// readCPUStat reads the aggregate "cpu" line of /proc/stat; the zero value
// (no correction) when it is unavailable.
func readCPUStat() cpuStat {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return cpuStat{}
	}
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuStat{}
	}
	var st cpuStat
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user and nice.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuStat{}
		}
		st.total += v
		if i == 7 {
			st.steal = v
		}
	}
	return st
}

// stolen is the share of CPU time stolen between a and b (0 when unknown).
func stolen(a, b cpuStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
