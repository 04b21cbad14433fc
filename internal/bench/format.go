package bench

import (
	"fmt"
	"strings"
)

// FormatTable renders rows as an aligned ASCII table.
func FormatTable(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

// FormatScaling renders scaling series as a table: one row per node count,
// one column per method, values are speedups vs PCG at one node.
func FormatScaling(title string, series []ScalingSeries) string {
	if len(series) == 0 {
		return title + ": (no data)\n"
	}
	headers := []string{"nodes", "cores"}
	for _, s := range series {
		headers = append(headers, s.Method)
	}
	var rows [][]string
	for i := range series[0].Nodes {
		row := []string{fmt.Sprint(series[0].Nodes[i]), fmt.Sprint(series[0].Cores[i])}
		for _, s := range series {
			row = append(row, fmt.Sprintf("%.2fx", s.Speedup[i]))
		}
		rows = append(rows, row)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	b.WriteString(FormatTable(headers, rows))
	for _, s := range series {
		fmt.Fprintf(&b, "# %s: %d iterations, converged=%v\n", s.Method, s.Iterations, s.Converged)
	}
	return b.String()
}

// FormatScalingCSV renders scaling series as CSV (nodes, cores, then one
// speedup column per method).
func FormatScalingCSV(series []ScalingSeries) string {
	if len(series) == 0 {
		return ""
	}
	var b strings.Builder
	cols := []string{"nodes", "cores"}
	for _, s := range series {
		cols = append(cols, s.Method)
	}
	fmt.Fprintln(&b, strings.Join(cols, ","))
	for i := range series[0].Nodes {
		cells := []string{fmt.Sprint(series[0].Nodes[i]), fmt.Sprint(series[0].Cores[i])}
		for _, s := range series {
			cells = append(cells, fmt.Sprintf("%.4f", s.Speedup[i]))
		}
		fmt.Fprintln(&b, strings.Join(cells, ","))
	}
	return b.String()
}

// FormatTrajectories renders Fig. 5-style residual-versus-time curves.
func FormatTrajectories(title string, trs []Trajectory) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for _, tr := range trs {
		fmt.Fprintf(&b, "%s:", tr.Method)
		step := 1
		if len(tr.TimeSec) > 12 {
			step = len(tr.TimeSec) / 12
		}
		for i := 0; i < len(tr.TimeSec); i += step {
			fmt.Fprintf(&b, " (%.3gs, %.2e)", tr.TimeSec[i], tr.RelRes[i])
		}
		if n := len(tr.TimeSec); n > 0 {
			fmt.Fprintf(&b, " final (%.3gs, %.2e)", tr.TimeSec[n-1], tr.RelRes[n-1])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TimeToThreshold returns the first modeled time at which the trajectory
// drops below the threshold, or -1 if it never does.
func TimeToThreshold(tr Trajectory) float64 {
	for i, r := range tr.RelRes {
		if r < tr.Threshold {
			return tr.TimeSec[i]
		}
	}
	return -1
}
