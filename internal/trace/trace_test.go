package trace

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

// fillDistinct sets every field of c to a distinct nonzero value (i+1 for the
// i-th struct field) via reflection, so coverage holes show up per-field.
func fillDistinct(c *Counters) {
	v := reflect.ValueOf(c).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int:
			f.SetInt(int64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i + 1))
		default:
			panic("unsupported Counters field kind " + f.Kind().String())
		}
	}
}

// TestCountersFieldCoverage is the guard the serialization contract hangs on:
// adding a field to Counters without extending Add, Fields and fieldName
// fails here, before any service dashboard silently misses the new counter.
func TestCountersFieldCoverage(t *testing.T) {
	var c Counters
	fillDistinct(&c)
	typ := reflect.TypeOf(c)

	// Every struct field must have a serialized name, and every serialized
	// name must appear in Fields() with the field's exact value.
	fields := c.Fields()
	if len(fields) != typ.NumField() {
		t.Fatalf("Fields() returns %d entries, Counters has %d fields", len(fields), typ.NumField())
	}
	byName := map[string]float64{}
	for _, f := range fields {
		byName[f.Name] = f.Value
	}
	v := reflect.ValueOf(c)
	for i := 0; i < typ.NumField(); i++ {
		name, ok := fieldName[typ.Field(i).Name]
		if !ok {
			t.Fatalf("Counters.%s has no serialized name (extend fieldName and Fields)", typ.Field(i).Name)
		}
		var want float64
		switch f := v.Field(i); f.Kind() {
		case reflect.Int:
			want = float64(f.Int())
		case reflect.Float64:
			want = f.Float()
		}
		if got, ok := byName[name]; !ok || got != want {
			t.Fatalf("Fields() entry %q = %g, want %g (Counters.%s not serialized?)", name, got, want, typ.Field(i).Name)
		}
	}

	// Add must sum every field: zero += filled must reproduce the filled
	// struct exactly.
	var sum Counters
	sum.Add(&c)
	if sum != c {
		t.Fatalf("Add misses fields: got %+v want %+v", sum, c)
	}
	sum.Add(&c)
	v2 := reflect.ValueOf(sum)
	for i := 0; i < typ.NumField(); i++ {
		var got, want float64
		switch f := v2.Field(i); f.Kind() {
		case reflect.Int:
			got, want = float64(f.Int()), 2*float64(i+1)
		case reflect.Float64:
			got, want = f.Float(), 2*float64(i+1)
		}
		if got != want {
			t.Fatalf("Add: Counters.%s = %g after two adds, want %g", typ.Field(i).Name, got, want)
		}
	}
}

func TestCountersJSONStable(t *testing.T) {
	var c Counters
	fillDistinct(&c)
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	// Keys present with their snake_case names, in declaration order.
	var decoded map[string]float64
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatalf("invalid JSON %s: %v", b, err)
	}
	if len(decoded) != len(c.Fields()) {
		t.Fatalf("JSON has %d keys, want %d: %s", len(decoded), len(c.Fields()), b)
	}
	prev := -1
	for _, f := range c.Fields() {
		idx := strings.Index(string(b), `"`+f.Name+`"`)
		if idx < 0 {
			t.Fatalf("JSON missing key %q: %s", f.Name, b)
		}
		if idx < prev {
			t.Fatalf("JSON key %q out of declaration order: %s", f.Name, b)
		}
		prev = idx
		if decoded[f.Name] != f.Value {
			t.Fatalf("JSON %q = %g want %g", f.Name, decoded[f.Name], f.Value)
		}
	}
	// Two marshals are byte-identical (stable serialization).
	b2, _ := json.Marshal(&c)
	if string(b) != string(b2) {
		t.Fatal("JSON serialization not stable across calls")
	}
}

func TestCountersPrometheus(t *testing.T) {
	c := Counters{SpMV: 7, Flops: 1.5}
	out := promText(t, &c, "solverd_kernel", `problem="p"`)
	for _, want := range []string{
		"solverd_kernel_spmv{problem=\"p\"} 7\n",
		"solverd_kernel_flops{problem=\"p\"} 1.5\n",
		"solverd_kernel_comm_corruptions{problem=\"p\"} 0\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	if lines := sampleLines(out); len(lines) != len(c.Fields()) {
		t.Fatalf("prometheus output has %d sample lines, want %d", len(lines), len(c.Fields()))
	}
	// Every field is its own typed family, declared before its sample.
	if want := "# TYPE solverd_kernel_spmv counter\nsolverd_kernel_spmv{problem=\"p\"} 7\n"; !strings.Contains(out, want) {
		t.Fatalf("prometheus output missing %q:\n%s", want, out)
	}
}

// promText renders c through a PromWriter and fails the test on a write
// error.
func promText(t *testing.T, c *Counters, prefix, labels string) string {
	t.Helper()
	var sb strings.Builder
	p := obs.NewPromWriter(&sb)
	c.WritePrometheus(p, prefix, labels)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// sampleLines returns the non-comment lines of a text-format scrape.
func sampleLines(out string) []string {
	var lines []string
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			lines = append(lines, line)
		}
	}
	return lines
}

// TestCountersPrometheusEmptyPrefix pins the bare-name edge case: an empty
// prefix must emit "spmv", not "_spmv" (a different series), and an empty
// label body must not emit braces.
func TestCountersPrometheusEmptyPrefix(t *testing.T) {
	c := Counters{SpMV: 2}
	out := promText(t, &c, "", "")
	if !strings.Contains(out, "\nspmv 2\n") {
		t.Fatalf("missing bare series name:\n%s", out)
	}
	for _, line := range sampleLines(out) {
		if strings.HasPrefix(line, "_") {
			t.Errorf("empty prefix left a leading underscore: %q", line)
		}
		if strings.ContainsAny(line, "{}") {
			t.Errorf("empty label body emitted braces: %q", line)
		}
	}
}

// TestPrometheusLabelEscaping pins Label's exposition-format escaping and
// that a hostile label value cannot tear the line structure of a scrape.
func TestPrometheusLabelEscaping(t *testing.T) {
	if got, want := Label("problem", `a"b\c`+"\n"+"d"), `problem="a\"b\\c\nd"`; got != want {
		t.Fatalf("Label = %s, want %s", got, want)
	}
	if got, want := Label("method", "pcg"), `method="pcg"`; got != want {
		t.Fatalf("Label = %s, want %s", got, want)
	}

	c := Counters{SpMV: 1}
	out := promText(t, &c, "k", Label("file", "weird\"name\nwith newline"))
	if got := strings.Count(out, "\n"); got != 2*len(c.Fields()) {
		t.Fatalf("escaped label broke line structure: %d lines, want %d:\n%s",
			got, 2*len(c.Fields()), out)
	}
	if want := `k_spmv{file="weird\"name\nwith newline"} 1` + "\n"; !strings.Contains(out, want) {
		t.Fatalf("missing escaped series %q in:\n%s", want, out)
	}
}

func TestCountersBasics(t *testing.T) {
	var c Counters
	c.SpMV = 3
	c.Allreduce = 2
	c.Iallreduce = 5
	if c.TotalAllreduces() != 7 {
		t.Fatal("TotalAllreduces")
	}
	c.Reset()
	if c.SpMV != 0 || c.TotalAllreduces() != 0 {
		t.Fatal("Reset")
	}
}

func TestString(t *testing.T) {
	c := Counters{SpMV: 2, PCApply: 1, Allreduce: 3, Iterations: 4}
	s := c.String()
	for _, want := range []string{"spmv=2", "pc=1", "allr=3", "iter=4"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}
