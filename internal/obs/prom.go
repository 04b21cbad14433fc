package obs

import (
	"fmt"
	"io"
	"strconv"
)

// PromWriter writes the Prometheus text exposition format (0.0.4) the way a
// strict parser wants it: a family is declared — its TYPE, and its HELP when
// it has one — before its first sample, and every sample is written against
// the declared family's name. It is the one text-format writer behind every
// metrics plane of the repository (solverd, the router, the Go runtime
// series, trace.Counters); no client library.
type PromWriter struct {
	w      io.Writer
	family string
	err    error
}

// NewPromWriter writes to w. The first write error sticks (see Err) and
// silences the rest.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Err returns the first write error.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

// Family declares a metric family of the given type ("counter", "gauge",
// "histogram"); help may be empty. The samples that follow belong to it; it
// returns p so a one-sample family reads as one statement.
func (p *PromWriter) Family(name, typ, help string) *PromWriter {
	p.family = name
	if help != "" {
		p.printf("# HELP %s %s\n", name, help)
	}
	p.printf("# TYPE %s %s\n", name, typ)
	return p
}

// Sample writes one sample of the current family with a preformatted value.
// labels is the raw label body (`shard="a"`, see trace.Label for safe
// construction of untrusted values) and may be empty.
func (p *PromWriter) Sample(labels, value string) { p.sample("", labels, value) }

func (p *PromWriter) sample(suffix, labels, value string) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	p.printf("%s%s%s %s\n", p.family, suffix, labels, value)
}

// PromBool is a boolean gauge's sample value: 1 or 0.
func PromBool(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Int writes one integer sample of the current family.
func (p *PromWriter) Int(labels string, v int64) { p.Sample(labels, strconv.FormatInt(v, 10)) }

// Float writes one float sample of the current family in %g form.
func (p *PromWriter) Float(labels string, v float64) { p.Sample(labels, formatG(v)) }

func formatG(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Histogram writes the current (histogram) family's _bucket/_sum/_count
// series for one label set: counts holds the per-bucket (non-cumulative)
// observations for bounds plus one trailing +Inf bucket, and their total is
// the _count.
func (p *PromWriter) Histogram(labels string, bounds []float64, counts []int64, sum float64) {
	le := func(bound string) string {
		if labels == "" {
			return `le="` + bound + `"`
		}
		return labels + `,le="` + bound + `"`
	}
	var cum int64
	for i, b := range bounds {
		cum += counts[i]
		p.sample("_bucket", le(formatG(b)), strconv.FormatInt(cum, 10))
	}
	cum += counts[len(bounds)]
	p.sample("_bucket", le("+Inf"), strconv.FormatInt(cum, 10))
	p.sample("_sum", labels, formatG(sum))
	p.sample("_count", labels, strconv.FormatInt(cum, 10))
}
