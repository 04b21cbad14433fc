package main

import (
	"math"
	"net/http"
	"strconv"
	"testing"
	"time"
)

// TestParseRetryAfter pins the RFC 7231 Retry-After grammar: delta-seconds
// (zero included — "retry now" is a real server answer, not an absent
// header), HTTP-dates in all three accepted formats, and rejection — never
// silent misreading — of negative or malformed values.
func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name  string
		value string
		want  time.Duration
		ok    bool
	}{
		{"delta seconds", "120", 120 * time.Second, true},
		{"delta one", "1", time.Second, true},
		{"explicit zero means retry now", "0", 0, true},
		{"surrounding whitespace tolerated", "  3 ", 3 * time.Second, true},
		{"negative delta rejected", "-5", 0, false},
		{"absent", "", 0, false},
		{"fractional seconds rejected", "1.5", 0, false},
		{"garbage rejected", "soon", 0, false},
		{"units rejected", "120s", 0, false},
		{"http date in the future", now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second, true},
		{"http date in the past clamps to now", now.Add(-time.Hour).Format(http.TimeFormat), 0, true},
		{"rfc 850 date", now.Add(30 * time.Second).Format(time.RFC850), 30 * time.Second, true},
		{"asctime date", now.Add(45 * time.Second).Format(time.ANSIC), 45 * time.Second, true},
		{"truncated date rejected", "Sun, 09 Aug", 0, false},
		{"delta overflowing a Duration clamps", "9223372037", math.MaxInt64 / time.Second * time.Second, true},
		{"delta past the int range clamps", "99999999999999999999", math.MaxInt64 / time.Second * time.Second, true},
		{"negative past the int range rejected", "-99999999999999999999", 0, false},
	}
	for _, tc := range cases {
		got, ok := parseRetryAfter(tc.value, now)
		if got != tc.want || ok != tc.ok {
			t.Errorf("%s: parseRetryAfter(%q) = (%v, %v), want (%v, %v)",
				tc.name, tc.value, got, ok, tc.want, tc.ok)
		}
	}
}

// FuzzParseRetryAfter: no header value panics the parser, an accepted value
// is never a negative wait (a wrapped Duration would retry at once), and
// delta-seconds that fit a Duration round-trip. `go test` runs the committed
// corpus (testdata/fuzz); `make fuzz` explores beyond it.
func FuzzParseRetryAfter(f *testing.F) {
	f.Add("120", uint32(120))
	f.Fuzz(func(t *testing.T, value string, secs uint32) {
		now := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
		if d, ok := parseRetryAfter(value, now); ok && d < 0 {
			t.Fatalf("parseRetryAfter(%q) = %v, ok: a negative wait", value, d)
		}
		v := strconv.FormatUint(uint64(secs), 10)
		if d, ok := parseRetryAfter(v, now); !ok || d != time.Duration(secs)*time.Second {
			t.Fatalf("parseRetryAfter(%q) = (%v, %v), want (%ds, true)", v, d, ok, secs)
		}
	})
}

// TestRetrySleep checks the fallback and clamping around the parser: a valid
// header wins verbatim (zero included), an invalid one falls back to the
// exponential schedule, and everything respects the cap.
func TestRetrySleep(t *testing.T) {
	resp := func(header string) *http.Response {
		r := &http.Response{Header: http.Header{}}
		if header != "" {
			r.Header.Set("Retry-After", header)
		}
		return r
	}
	cap := 2 * time.Second
	cases := []struct {
		name    string
		header  string
		attempt int
		want    time.Duration
	}{
		{"server schedule wins", "1", 5, time.Second},
		{"explicit zero sleeps zero", "0", 5, 0},
		{"server schedule clamped", "3600", 0, cap},
		{"absent falls back exponentially", "", 2, 100 * time.Millisecond},
		{"malformed falls back exponentially", "whenever", 3, 200 * time.Millisecond},
		{"negative falls back exponentially", "-1", 0, 25 * time.Millisecond},
		{"fallback clamped", "", 12, cap},
	}
	for _, tc := range cases {
		if got := retrySleep(resp(tc.header), tc.attempt, cap); got != tc.want {
			t.Errorf("%s: retrySleep(%q, attempt=%d) = %v, want %v",
				tc.name, tc.header, tc.attempt, got, tc.want)
		}
	}
}
