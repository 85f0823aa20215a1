package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
)

// hostCPU is one reading of the machine's CPU time counters from
// /proc/stat, in clock ticks: steal is the time a hypervisor held this
// machine's virtual CPUs while they had work to run, total the time of
// every kind. The zero value stands for "unavailable".
type hostCPU struct{ steal, total uint64 }

func readHostCPU() hostCPU {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	fields := strings.Fields(line)
	if err != nil || len(fields) < 9 || fields[0] != "cpu" {
		return hostCPU{}
	}
	var h hostCPU
	for i, s := range fields[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return hostCPU{}
		}
		// guest and guest_nice (fields 9 and 10) are already counted in
		// user and nice.
		if i < 8 {
			h.total += v
		}
		if i == 7 {
			h.steal = v
		}
	}
	return h
}

// stealShare is the share of the time between readings a and b that the
// virtual CPUs were stolen, 0 when unknown.
func stealShare(a, b hostCPU) float64 {
	if a.total == 0 || b.total <= a.total || b.steal < a.steal {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// calmMedian is the median of vals over the entries whose steal share is at
// most the median share: the calmer half of a run. On a virtual machine
// whose host lends its CPUs to other tenants in bursts, a burst slows every
// timing taken during it; dropping the stolen half keeps a burst that covers
// part of the window from moving the result. With no steal every entry
// counts.
func calmMedian(vals, shares []float64) float64 {
	limit := median(shares)
	var calm []float64
	for i, v := range vals {
		if shares[i] <= limit {
			calm = append(calm, v)
		}
	}
	return median(calm)
}
