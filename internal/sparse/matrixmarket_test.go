package sparse

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

func TestReadMatrixMarketGeneral(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real general
% a comment
3 3 4
1 1 2.0
1 3 1.0
2 2 3.0
3 1 4.0
`
	a, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows != 3 || a.Cols != 3 || a.NNZ() != 4 {
		t.Fatalf("shape %d×%d nnz %d", a.Rows, a.Cols, a.NNZ())
	}
	if a.At(0, 0) != 2 || a.At(0, 2) != 1 || a.At(1, 1) != 3 || a.At(2, 0) != 4 {
		t.Fatal("bad values")
	}
}

func TestReadMatrixMarketSymmetricExpands(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real symmetric
2 2 2
1 1 5.0
2 1 -1.0
`
	a, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(0, 1) != -1 || a.At(1, 0) != -1 || a.At(0, 0) != 5 {
		t.Fatal("symmetric expansion failed")
	}
	if !a.IsSymmetric(0) {
		t.Fatal("result should be symmetric")
	}
}

func TestReadMatrixMarketPattern(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate pattern general
2 2 2
1 2
2 1
`
	a, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(0, 1) != 1 || a.At(1, 0) != 1 {
		t.Fatal("pattern values should be 1")
	}
}

func TestReadMatrixMarketErrors(t *testing.T) {
	cases := []string{
		"",
		"%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n",
		"%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
		"%%MatrixMarket matrix coordinate real skew-symmetric\n1 1 1\n1 1 1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1\n",    // truncated
		"%%MatrixMarket matrix coordinate real general\n2 2 1\nx 1 1\n",    // bad row
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 y 1\n",    // bad col
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 z\n",    // bad val
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1\n",        // short line
		"%%MatrixMarket matrix coordinate real general\n0 0 0\n",           // bad dims
		"%%MatrixMarket matrix coordinate real general\nnot a size line\n", // bad size
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",      // missing value
		"%%MatrixMarket something else\n",                                  // bad header
	}
	for i, src := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(src)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestReadMatrixMarketHeaderCannotSizeAllocation: counts in a size line are
// claims, not budgets. A 60-byte body declaring fifty million entries, one
// declaring two billion rows and entries, and one whose rows exceed its entry
// count (a RowPtr of 16 GB for a single entry) are each refused having
// allocated under 1 MB.
func TestReadMatrixMarketHeaderCannotSizeAllocation(t *testing.T) {
	for _, src := range []string{
		"%%MatrixMarket matrix coordinate real symmetric\n1 1 50000000\n1 1 1\n",
		"%%MatrixMarket matrix coordinate real general\n2000000000 2000000000 2000000000\n1 1 1\n",
		"%%MatrixMarket matrix coordinate real general\n2000000000 2000000000 1\n1 1 1\n",
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadMatrixMarket(strings.NewReader(src))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%q: want an error", src)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Fatalf("%q: allocated %d bytes before failing (%v)", src, alloc, err)
		}
	}
}

// TestReadMatrixMarketRefusesIndexOverflow: a size line past the 32-bit
// index limit, in rows or in columns, is an error naming the limit — not a
// panic from the Builder, and not a wrapped column index.
func TestReadMatrixMarketRefusesIndexOverflow(t *testing.T) {
	for _, src := range []string{
		"%%MatrixMarket matrix coordinate real general\n2147483648 2147483648 2147483648\n1 1 1\n",
		"%%MatrixMarket matrix coordinate real general\n2147483648 1 2147483648\n1 1 1\n",
		"%%MatrixMarket matrix coordinate pattern general\n1 4294967297 4294967297\n1 1\n",
	} {
		_, err := ReadMatrixMarket(strings.NewReader(src))
		if err == nil || !strings.Contains(err.Error(), "32-bit index limit") {
			t.Errorf("%q: got %v, want the 32-bit index limit named", src, err)
		}
	}
}

// TestReadMatrixMarketRefusesBadEntries: indices outside the declared shape
// and a non-square symmetric file are errors, not panics.
func TestReadMatrixMarketRefusesBadEntries(t *testing.T) {
	for _, src := range []string{
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n3 1 1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n1 0 1\n",
		"%%MatrixMarket matrix coordinate real symmetric\n2 3 3\n1 1 1\n2 2 1\n1 3 1\n",
	} {
		if _, err := ReadMatrixMarket(strings.NewReader(src)); err == nil {
			t.Errorf("%q: want an error", src)
		}
	}
}

// mmReference re-reads a body the reader accepted, line by line, and sums
// every entry (and its mirror, for symmetric files) into a map in file order:
// the values the CSR must hold.
func mmReference(t *testing.T, body []byte) (rows, cols int, vals map[[2]int]float64) {
	t.Helper()
	if len(body) >= 2 && body[0] == 0x1f && body[1] == 0x8b {
		gz, err := gzip.NewReader(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("reader accepted a gzip stream gzip refuses: %v", err)
		}
		body, _ = io.ReadAll(gz) // what precedes a late error is what the reader saw
	}
	lines := strings.Split(string(body), "\n")
	header := strings.Fields(strings.ToLower(lines[0]))
	pattern, symmetric := header[3] == "pattern", header[4] == "symmetric"
	vals = map[[2]int]float64{}
	nnz, read := -1, 0
	for _, line := range lines[1:] {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if nnz < 0 {
			fmt.Sscan(line, &rows, &cols, &nnz)
			continue
		}
		if read == nnz {
			break
		}
		f := strings.Fields(line)
		i, _ := strconv.Atoi(f[0])
		j, _ := strconv.Atoi(f[1])
		v := 1.0
		if !pattern {
			v, _ = strconv.ParseFloat(f[2], 64)
		}
		vals[[2]int{i - 1, j - 1}] += v
		if symmetric && i != j {
			vals[[2]int{j - 1, i - 1}] += v
		}
		read++
	}
	return rows, cols, vals
}

// FuzzReadMatrixMarket: no input panics the reader, and whatever it accepts
// is a valid CSR — monotone RowPtr ending at len(Col) = len(Val), columns
// strictly increasing and in range in every row — holding exactly the
// entries of the file, duplicates summed in file order. `go test` runs the
// committed corpus (testdata/fuzz); `make fuzz` explores beyond it.
func FuzzReadMatrixMarket(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		a, err := ReadMatrixMarket(bytes.NewReader(body))
		if err != nil {
			return
		}
		if len(a.RowPtr) != a.Rows+1 || a.RowPtr[0] != 0 || a.RowPtr[a.Rows] != len(a.Col) || len(a.Col) != len(a.Val) {
			t.Fatalf("bad CSR shape: %d rows, RowPtr len %d ends %d, %d cols, %d vals",
				a.Rows, len(a.RowPtr), a.RowPtr[len(a.RowPtr)-1], len(a.Col), len(a.Val))
		}
		rows, cols, want := mmReference(t, body)
		if a.Rows != rows || a.Cols != cols || a.NNZ() != len(want) {
			t.Fatalf("CSR %d×%d with %d entries, file %d×%d with %d distinct", a.Rows, a.Cols, a.NNZ(), rows, cols, len(want))
		}
		for i := 0; i < a.Rows; i++ {
			if a.RowPtr[i] > a.RowPtr[i+1] {
				t.Fatalf("RowPtr falls at row %d", i)
			}
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				c := int(a.Col[k])
				if c < 0 || c >= a.Cols || (k > a.RowPtr[i] && c <= int(a.Col[k-1])) {
					t.Fatalf("row %d: column %d out of range or order", i, c)
				}
				w, ok := want[[2]int{i, c}]
				if v := a.Val[k]; !ok || (v != w && !(v != v && w != w)) {
					t.Fatalf("(%d,%d) = %g, file sums to %g (present %v)", i, c, v, w, ok)
				}
			}
		}
	})
}

// gzipped compresses a MatrixMarket source in memory.
func gzipped(t *testing.T, src []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if _, err := gz.Write(src); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMatrixMarketRoundTripVariants pushes matrices of each supported
// qualifier through Write → Read, plain and gzipped, and checks the dense
// images agree. Pattern and symmetric inputs exercise the expansion edge
// cases: Write emits the already-expanded general form, so the reread must
// match the first parse exactly.
func TestMatrixMarketRoundTripVariants(t *testing.T) {
	sources := map[string]string{
		"general": `%%MatrixMarket matrix coordinate real general
3 3 4
1 1 2.0
1 3 1.0
2 2 3.0
3 1 4.0
`,
		// Symmetric with a diagonal entry (expanded once, not twice) and an
		// off-diagonal entry (mirrored into both triangles).
		"symmetric": `%%MatrixMarket matrix coordinate real symmetric
3 3 3
1 1 5.0
3 1 -1.5
2 2 0.25
`,
		// Pattern entries take value 1; integer values parse as floats.
		"pattern": `%%MatrixMarket matrix coordinate pattern general
2 3 3
1 2
2 1
2 3
`,
		"integer": `%%MatrixMarket matrix coordinate integer symmetric
2 2 2
1 1 4
2 1 -7
`,
	}
	for name, src := range sources {
		t.Run(name, func(t *testing.T) {
			a, err := ReadMatrixMarket(strings.NewReader(src))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := WriteMatrixMarket(&buf, a); err != nil {
				t.Fatal(err)
			}
			plain := buf.Bytes()
			for _, enc := range []struct {
				form string
				data []byte
			}{{"plain", plain}, {"gzip", gzipped(t, plain)}} {
				b, err := ReadMatrixMarket(bytes.NewReader(enc.data))
				if err != nil {
					t.Fatalf("%s reread: %v", enc.form, err)
				}
				if b.Rows != a.Rows || b.Cols != a.Cols || b.NNZ() != a.NNZ() {
					t.Fatalf("%s reread shape %d×%d nnz %d, want %d×%d nnz %d",
						enc.form, b.Rows, b.Cols, b.NNZ(), a.Rows, a.Cols, a.NNZ())
				}
				da, db := denseOf(a), denseOf(b)
				for i := range da {
					if da[i] != db[i] {
						t.Fatalf("%s reread value mismatch at %d", enc.form, i)
					}
				}
			}
		})
	}
}

// TestReadMatrixMarketGzipDirect reads a gzipped original source (not a
// rewrite) — the registry-upload path.
func TestReadMatrixMarketGzipDirect(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real symmetric
2 2 2
1 1 5.0
2 1 -1.0
`
	a, err := ReadMatrixMarket(bytes.NewReader(gzipped(t, []byte(src))))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(0, 1) != -1 || a.At(1, 0) != -1 || a.At(0, 0) != 5 {
		t.Fatal("gzip symmetric parse failed")
	}
}

// TestReadMatrixMarketBadGzip: a valid magic followed by garbage must error,
// not hang or panic.
func TestReadMatrixMarketBadGzip(t *testing.T) {
	if _, err := ReadMatrixMarket(bytes.NewReader([]byte{0x1f, 0x8b, 0xff, 0x00, 0x01})); err == nil {
		t.Fatal("want error for corrupt gzip stream")
	}
	// A 1-byte stream (shorter than the magic) is an ordinary parse error.
	if _, err := ReadMatrixMarket(bytes.NewReader([]byte{0x1f})); err == nil {
		t.Fatal("want error for truncated stream")
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomCSR(rng, 9, 7, 0.3)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	da, db := denseOf(a), denseOf(b)
	for i := range da {
		if da[i] != db[i] {
			t.Fatal("round trip mismatch")
		}
	}
}
