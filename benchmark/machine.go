package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// machineInfo is the block printed with every result, so a number is never
// read without the machine that produced it.
type machineInfo struct {
	NProc      int
	GoMaxProcs int
	GoVersion  string
	CPUModel   string
	Caches     string // "L1d 48K, L2 2048K, L3 266240K" as sysfs reports cpu0
	LLCBytes   int64
}

func readMachine() machineInfo {
	m := machineInfo{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	var parts []string
	for i := 0; i < 8; i++ {
		dir := "/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(i) + "/"
		level, err := os.ReadFile(dir + "level")
		if err != nil {
			break
		}
		typ, _ := os.ReadFile(dir + "type")
		size, _ := os.ReadFile(dir + "size")
		if strings.HasPrefix(string(typ), "Instruction") {
			continue
		}
		sz := strings.TrimSpace(string(size))
		parts = append(parts, "L"+strings.TrimSpace(string(level))+" "+sz)
		if kb, err := strconv.ParseInt(strings.TrimSuffix(sz, "K"), 10, 64); err == nil {
			m.LLCBytes = kb << 10 // the last index is the last level
		}
	}
	m.Caches = strings.Join(parts, ", ")
	return m
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// triadArrayBytes sizes each of the three triad arrays. The guide asks for
// four times the last-level cache for a DRAM bandwidth figure; the L3 here is
// 260 MiB shared with other tenants, which would need 3 GiB of arrays and
// most of a run's time, so the probe uses 64 MiB arrays (32× the L2), states
// both sizes next to the number, and every GB/s in the ledger is labelled
// computed: no roofline ratio is claimed from it.
const triadArrayBytes = 64 << 20

// triadGBps runs a[i] = b[i] + s·c[i] over three arrays on nproc goroutines
// and returns the best of reps sweeps as computed GB/s (24 bytes per element).
func triadGBps(reps int) float64 {
	n := triadArrayBytes / 8
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	w := runtime.GOMAXPROCS(0)
	best := 0.0
	for r := 0; r < reps; r++ {
		done := make(chan struct{}, w)
		t0 := time.Now()
		for g := 0; g < w; g++ {
			lo, hi := g*n/w, (g+1)*n/w
			go func() {
				aa, bb, cc := a[lo:hi], b[lo:hi], c[lo:hi]
				for i := range aa {
					aa[i] = bb[i] + 3*cc[i]
				}
				done <- struct{}{}
			}()
		}
		for g := 0; g < w; g++ {
			<-done
		}
		if gbps := 24 * float64(n) / time.Since(t0).Seconds() / 1e9; gbps > best {
			best = gbps
		}
	}
	return best
}
