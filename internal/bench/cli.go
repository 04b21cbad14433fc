package bench

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseInts parses a comma-separated integer list ("1,10,40,120"). Each
// element may also be an inclusive range "lo:hi" (stride 1, or -1 when
// lo > hi) or "lo:hi:stride" — "1:5:2" is 1,3,5 and "5:1:-2" is 5,3,1.
// Negative endpoints are fine; a zero stride, or a stride pointing away from
// hi, is an error (never an infinite loop). Empty elements (trailing or
// doubled commas) are skipped; a list with no elements at all is an error.
func ParseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		vals, err := parseIntRange(part)
		if err != nil {
			return nil, err
		}
		out = append(out, vals...)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("bench: empty integer list %q", s)
	}
	return out, nil
}

// parseIntRange expands one list element: a plain integer, "lo:hi", or
// "lo:hi:stride". Ranges are inclusive of hi when the stride lands on it.
func parseIntRange(part string) ([]int, error) {
	fields := strings.Split(part, ":")
	if len(fields) == 1 {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bench: bad integer %q: %w", part, err)
		}
		return []int{v}, nil
	}
	if len(fields) > 3 {
		return nil, fmt.Errorf("bench: bad range %q (want lo:hi or lo:hi:stride)", part)
	}
	nums := make([]int, len(fields))
	for i, f := range fields {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bench: bad range bound %q in %q: %w", f, part, err)
		}
		nums[i] = v
	}
	lo, hi := nums[0], nums[1]
	stride := 1
	if lo > hi {
		stride = -1
	}
	if len(nums) == 3 {
		stride = nums[2]
	}
	if stride == 0 {
		return nil, fmt.Errorf("bench: zero stride in range %q", part)
	}
	if (hi-lo > 0 && stride < 0) || (hi-lo < 0 && stride > 0) {
		return nil, fmt.Errorf("bench: stride %d in range %q never reaches %d", stride, part, hi)
	}
	var out []int
	if stride > 0 {
		for v := lo; v <= hi; v += stride {
			out = append(out, v)
		}
	} else {
		for v := lo; v >= hi; v += stride {
			out = append(out, v)
		}
	}
	return out, nil
}

// ParseList splits a comma-separated string list.
func ParseList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
