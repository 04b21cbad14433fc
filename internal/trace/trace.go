// Package trace counts the kernel invocations and floating point work of a
// solver run. The counters are the ground truth used to validate the
// implementation against Table I of the paper (allreduces, SPMVs and PC
// applications per s iterations, FLOPS in VMAs and dot products).
package trace

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// Counters accumulates kernel-level statistics for one solve.
type Counters struct {
	SpMV          int // sparse matrix-vector products
	PCApply       int // preconditioner applications
	Allreduce     int // blocking allreduces
	Iallreduce    int // non-blocking allreduces posted
	ReduceWords   int // total float64 words reduced across all allreduces
	HaloExchanges int // neighbor (ghost) exchange phases

	// Flops counts local floating point operations in VMAs, recurrence
	// linear combinations and local dot products (SpMV and PC flops are
	// tracked separately via SpMVFlops/PCFlops).
	Flops     float64
	SpMVFlops float64
	PCFlops   float64

	Iterations int // solver-reported iterations (PCG-equivalent steps)

	// Resilience counters — solver-level recovery events. Every entry is a
	// moment the run would previously have hard-stopped (or silently drifted)
	// and instead repaired itself.
	Recoveries           int // total recovery events (restarts, forced replacements, stepdowns)
	ResidualReplacements int // r = b − A·x recomputed outside the normal schedule
	LadderStepdowns      int // escalation rung switches (resilience ladder, Hybrid)

	// Comm-level fault counters, folded in by fault-tracking runtimes: recv
	// deadline expiries, payloads recovered from the retransmit store, and
	// checksum failures detected (repaired when the pristine copy survived).
	CommTimeouts    int
	CommResends     int
	CommCorruptions int
}

// Reset zeroes all counters.
func (c *Counters) Reset() { *c = Counters{} }

// Add folds other into c field-by-field — the aggregation primitive that lets
// a service merge per-job counters into process-level totals without copying
// fields by hand. Every field of Counters is additive, so the merge is a
// plain sum; TestCountersFieldCoverage fails the build's test run when a new
// field is added here but not summed.
func (c *Counters) Add(other *Counters) {
	c.SpMV += other.SpMV
	c.PCApply += other.PCApply
	c.Allreduce += other.Allreduce
	c.Iallreduce += other.Iallreduce
	c.ReduceWords += other.ReduceWords
	c.HaloExchanges += other.HaloExchanges
	c.Flops += other.Flops
	c.SpMVFlops += other.SpMVFlops
	c.PCFlops += other.PCFlops
	c.Iterations += other.Iterations
	c.Recoveries += other.Recoveries
	c.ResidualReplacements += other.ResidualReplacements
	c.LadderStepdowns += other.LadderStepdowns
	c.CommTimeouts += other.CommTimeouts
	c.CommResends += other.CommResends
	c.CommCorruptions += other.CommCorruptions
}

// Field is one serialized counter: a stable snake_case name (usable directly
// as a JSON key or a Prometheus metric-name suffix) and its value.
type Field struct {
	Name  string
	Value float64
}

// Fields returns every counter as an ordered name/value list — the single
// source of truth for both JSON and Prometheus serialization. The order is
// the struct declaration order and the names are frozen: dashboards and
// scrape configs may depend on them. TestCountersFieldCoverage fails when a
// Counters field is missing here.
func (c *Counters) Fields() []Field {
	return []Field{
		{"spmv", float64(c.SpMV)},
		{"pc_apply", float64(c.PCApply)},
		{"allreduce", float64(c.Allreduce)},
		{"iallreduce", float64(c.Iallreduce)},
		{"reduce_words", float64(c.ReduceWords)},
		{"halo_exchanges", float64(c.HaloExchanges)},
		{"flops", c.Flops},
		{"spmv_flops", c.SpMVFlops},
		{"pc_flops", c.PCFlops},
		{"iterations", float64(c.Iterations)},
		{"recoveries", float64(c.Recoveries)},
		{"residual_replacements", float64(c.ResidualReplacements)},
		{"ladder_stepdowns", float64(c.LadderStepdowns)},
		{"comm_timeouts", float64(c.CommTimeouts)},
		{"comm_resends", float64(c.CommResends)},
		{"comm_corruptions", float64(c.CommCorruptions)},
	}
}

// fieldName maps a Counters struct field name to its serialized name in
// Fields(). The test that keeps Fields() complete uses it; keeping the map
// next to Fields makes a missed field a one-file fix.
var fieldName = map[string]string{
	"SpMV":                 "spmv",
	"PCApply":              "pc_apply",
	"Allreduce":            "allreduce",
	"Iallreduce":           "iallreduce",
	"ReduceWords":          "reduce_words",
	"HaloExchanges":        "halo_exchanges",
	"Flops":                "flops",
	"SpMVFlops":            "spmv_flops",
	"PCFlops":              "pc_flops",
	"Iterations":           "iterations",
	"Recoveries":           "recoveries",
	"ResidualReplacements": "residual_replacements",
	"LadderStepdowns":      "ladder_stepdowns",
	"CommTimeouts":         "comm_timeouts",
	"CommResends":          "comm_resends",
	"CommCorruptions":      "comm_corruptions",
}

// MarshalJSON serializes the counters as a flat object with the stable
// snake_case keys of Fields(), in declaration order. Integer-valued counters
// are emitted without a decimal point.
func (c *Counters) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('{')
	for i, f := range c.Fields() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Quote(f.Name))
		b.WriteByte(':')
		b.WriteString(formatValue(f.Value))
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// WritePrometheus writes every counter as its own Prometheus counter family:
//
//	# TYPE <prefix>_<name> counter
//	<prefix>_<name>{<labels>} <value>
//
// labels is the raw label body ("method=\"pcg\"", see Label for safe
// construction) and may be empty. The output order matches Fields(), so
// repeated scrapes diff cleanly.
func (c *Counters) WritePrometheus(p *obs.PromWriter, prefix, labels string) {
	if prefix != "" {
		// An empty prefix must not leave a leading underscore: "_spmv" and
		// "spmv" are distinct series to a scraper.
		prefix += "_"
	}
	for _, f := range c.Fields() {
		p.Family(prefix+f.Name, "counter", "")
		p.Sample(labels, formatValue(f.Value))
	}
}

// Label renders one name="value" label pair with the Prometheus exposition
// format's value escaping (backslash, double quote and newline). Join pairs
// with commas to build WritePrometheus's label body; an unescaped value —
// say an uploaded matrix name carrying a quote — would otherwise tear the
// series line apart.
func Label(name, value string) string {
	var b strings.Builder
	b.WriteString(name)
	b.WriteString(`="`)
	for _, r := range value {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// formatValue renders integral values without an exponent or decimal point
// and everything else in shortest round-trip form.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// TotalAllreduces returns blocking plus non-blocking reductions.
func (c *Counters) TotalAllreduces() int { return c.Allreduce + c.Iallreduce }

// RecoveryEvents totals every recovery action across both resilience layers:
// solver-level restarts/replacements/stepdowns plus comm-level resends and
// repaired corruptions. A fault-free run is not always at 0: an s-step solve
// pushed past its attainable accuracy restarts on basis breakdown, and
// Hybrid counts its stage switches.
func (c *Counters) RecoveryEvents() int {
	return c.Recoveries + c.CommResends + c.CommCorruptions
}

// RecoveryString summarizes the resilience counters.
func (c *Counters) RecoveryString() string {
	return fmt.Sprintf("recoveries=%d replacements=%d stepdowns=%d comm(timeouts=%d resends=%d corruptions=%d)",
		c.Recoveries, c.ResidualReplacements, c.LadderStepdowns,
		c.CommTimeouts, c.CommResends, c.CommCorruptions)
}

// String summarizes the counters.
func (c *Counters) String() string {
	return fmt.Sprintf("iter=%d spmv=%d pc=%d allr=%d iallr=%d words=%d flops=%.3g",
		c.Iterations, c.SpMV, c.PCApply, c.Allreduce, c.Iallreduce, c.ReduceWords, c.Flops)
}
