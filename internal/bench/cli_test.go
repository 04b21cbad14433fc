package bench

import (
	"testing"

	"repro/internal/workload"
)

func TestParseInts(t *testing.T) {
	cases := []struct {
		in      string
		want    []int
		wantErr bool
	}{
		{in: " 1, 10,120 ", want: []int{1, 10, 120}},
		{in: "42", want: []int{42}},
		{in: "-3,-1", want: []int{-3, -1}},
		{in: "1,2,", want: []int{1, 2}},  // trailing comma
		{in: ",1,,2", want: []int{1, 2}}, // leading/doubled commas
		{in: "", wantErr: true},          // empty string
		{in: " , ", wantErr: true},       // only separators
		{in: "a,b", wantErr: true},       // not integers
		{in: "1.5", wantErr: true},       // float
		{in: "1:4", want: []int{1, 2, 3, 4}},
		{in: "4:1", want: []int{4, 3, 2, 1}}, // descending, implied -1
		{in: "1:5:2", want: []int{1, 3, 5}},
		{in: "1:6:2", want: []int{1, 3, 5}},   // hi not on stride
		{in: "5:1:-2", want: []int{5, 3, 1}},  // negative stride
		{in: "-2:2:2", want: []int{-2, 0, 2}}, // negative endpoints
		{in: "3:3", want: []int{3}},           // degenerate range
		{in: "3:3:-1", want: []int{3}},        // degenerate, any stride
		{in: "8,1:3,40:20:-10", want: []int{8, 1, 2, 3, 40, 30, 20}},
		{in: "1:5:0", wantErr: true},   // zero stride: error, not a hang
		{in: "1:5:-1", wantErr: true},  // stride points away from hi
		{in: "5:1:1", wantErr: true},   // ditto, ascending stride
		{in: "1:2:3:4", wantErr: true}, // too many fields
		{in: "1:x", wantErr: true},     // bad bound
		{in: ":5", wantErr: true},      // missing bound
	}
	for _, tc := range cases {
		got, err := ParseInts(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseInts(%q) = %v, want error", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseInts(%q): %v", tc.in, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("ParseInts(%q) = %v, want %v", tc.in, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("ParseInts(%q) = %v, want %v", tc.in, got, tc.want)
				break
			}
		}
	}
}

func TestParseList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"pcg, pipecg ,,pipe-pscg", []string{"pcg", "pipecg", "pipe-pscg"}},
		{"", nil},               // empty string → empty list, no panic
		{",,,", nil},            // only separators
		{" a ,", []string{"a"}}, // trailing comma + padding
	}
	for _, tc := range cases {
		got := ParseList(tc.in)
		if len(got) != len(tc.want) {
			t.Errorf("ParseList(%q) = %v, want %v", tc.in, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("ParseList(%q) = %v, want %v", tc.in, got, tc.want)
				break
			}
		}
	}
}

func TestProblemByName(t *testing.T) {
	for _, name := range workload.Names { // the name list and the constructors agree
		pr, err := workload.ProblemByName(name, 8, 32)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if pr.A == nil || pr.A.Rows == 0 {
			t.Fatalf("%s: empty problem", name)
		}
		if pr.Decomp == nil {
			t.Fatalf("%s: missing decomposition hint", name)
		}
	}
	if _, err := workload.ProblemByName("bogus", 8, 1); err == nil {
		t.Fatal("want error")
	}
}
