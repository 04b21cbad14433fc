package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// passResult is one child run: its result line and the x_hash ledger it
// printed.
type passResult struct {
	line   resultLine
	hashes map[string]string
}

// runChild re-executes this binary for one workload and pass, relaying the
// child's report and parsing its last line.
func runChild(workload string, seed uint64, seconds, scale float64, trace int, outDir string) (passResult, error) {
	self, err := os.Executable()
	if err != nil {
		return passResult{}, err
	}
	cmd := exec.Command(self,
		"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-scale", fmt.Sprint(scale), "-trace", fmt.Sprint(trace), "-out", outDir)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	runErr := cmd.Run() // waits for the child; a non-zero exit is judged from its result line
	res := passResult{hashes: map[string]string{}}
	last := ""
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		last = sc.Text()
		switch {
		case strings.HasPrefix(last, "x_hash "):
			if f := strings.Fields(last); len(f) == 3 {
				res.hashes[f[1]] = f[2]
			}
		case strings.HasPrefix(last, "#"):
			fmt.Println(last)
		}
	}
	if err := json.Unmarshal([]byte(last), &res.line); err != nil {
		return res, fmt.Errorf("%s trace=%d: no result line (%v; run: %v)", workload, trace, err, runErr)
	}
	return res, nil
}

// runAll is the one command: every workload, untraced pass then traced pass,
// each in its own process; every metric printed by name with its unit; the
// correctness gate, the cross-workload hash check and, with repeat > 1, the
// repeatability self-check. It returns the exit code.
func runAll(seed uint64, seconds, scale float64, repeat int, outDir string) int {
	bad := 0
	complain := func(format string, args ...any) {
		bad++
		fmt.Printf("FAIL: "+format+"\n", args...)
	}
	// sets[set][workload][pass]
	sets := make([]map[string][2]passResult, repeat)
	for set := range sets {
		sets[set] = map[string][2]passResult{}
		for _, w := range workloadDefs {
			var both [2]passResult
			for trace := 0; trace <= 1; trace++ {
				fmt.Printf("== set %d/%d  %s  trace=%d\n", set+1, repeat, w.Name, trace)
				r, err := runChild(w.Name, seed, seconds, scale, trace, outDir)
				if err != nil {
					complain("%v", err)
					continue
				}
				both[trace] = r
				fmt.Printf("   attempted %d succeeded %d failed %d\n", r.line.Attempted, r.line.Attempted-r.line.Failed, r.line.Failed)
				if !r.line.Correct {
					complain("%s trace=%d: %d of %d operations failed", w.Name, trace, r.line.Failed, r.line.Attempted)
				}
			}
			sets[set][w.Name] = both
		}
		// The same list solved direct and through the router must agree
		// system by system.
		direct, routed := sets[set]["serve_mixed"][0].hashes, sets[set]["cluster_mixed"][0].hashes
		for key, h := range direct {
			if other, ok := routed[key]; ok && other != h {
				complain("x_hash of %s: serve_mixed %s, cluster_mixed %s", key, h, other)
			}
		}
	}

	printTable := func(title string, defs []metricDef, pass int) {
		fmt.Printf("\n%s (set 1)\n%-38s %-6s", title, "metric", "unit")
		for _, w := range workloadDefs {
			fmt.Printf(" %13s", w.Name)
		}
		fmt.Println()
		for _, d := range defs {
			fmt.Printf("%-38s %-6s", d.Name, d.Unit)
			for _, w := range workloadDefs {
				fmt.Printf(" %13.6g", sets[0][w.Name][pass].line.Metrics[d.Name].Value)
			}
			fmt.Println()
		}
	}
	printTable("end-to-end metrics, tracing off", endToEndDefs, 0)
	printTable("per-layer metrics, traced pass", perLayerDefs, 1)

	for set := 1; set < repeat; set++ {
		fmt.Printf("\nrepeatability: set %d against set 1\n", set+1)
		for _, w := range workloadDefs {
			a, b := sets[0][w.Name], sets[set][w.Name]
			for _, d := range endToEndDefs {
				va, vb := a[0].line.Metrics[d.Name].Value, b[0].line.Metrics[d.Name].Value
				if va == 0 || vb == 0 {
					complain("%s on %s is 0", d.Name, w.Name)
					continue
				}
				diff := max(va, vb)/min(va, vb) - 1
				fmt.Printf("  %-13s %-12s %12.6g %12.6g  differ %5.1f%% (bound %2.0f%%)\n", w.Name, d.Name, va, vb, 100*diff, 100*d.Bound)
				if diff > d.Bound {
					complain("%s on %s differs by %.1f%% between two sets of the same code, bound %.0f%%", d.Name, w.Name, 100*diff, 100*d.Bound)
				}
			}
			for _, d := range perLayerDefs {
				va, vb := a[1].line.Metrics[d.Name].Value, b[1].line.Metrics[d.Name].Value
				if d.Exact && va != vb {
					complain("count %s on %s does not repeat: %g then %g", d.Name, w.Name, va, vb)
				}
			}
		}
	}
	if bad > 0 {
		fmt.Printf("\n%d check(s) failed\n", bad)
		return 1
	}
	fmt.Println("\nall checks passed")
	return 0
}
