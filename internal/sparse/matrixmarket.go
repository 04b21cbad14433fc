package sparse

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadMatrixMarket parses a MatrixMarket coordinate-format stream into CSR.
// Supported qualifiers: real/integer/pattern × general/symmetric. Symmetric
// files are expanded to full storage (both triangles), matching how the
// SuiteSparse collection stores SPD matrices such as ecology2 and thermal2.
//
// Gzip-compressed streams are handled transparently: the reader sniffs the
// two-byte gzip magic (0x1f 0x8b), so `.mtx` and `.mtx.gz` files — the form
// SuiteSparse distributes and service uploads arrive in — go through the
// same call.
//
// The reader trusts no count in the stream: memory grows only with the
// entries actually read, and a size line whose rows or cols exceed its
// declared entry count is refused before anything is allocated for it. Every
// matrix this repository solves is square with a stored diagonal, so it
// declares at least one entry per row and per column. A size line past
// MaxIndex rows or columns is refused the same way: CSR column indices are
// 32-bit.
func ReadMatrixMarket(r io.Reader) (*CSR, error) {
	br := bufio.NewReader(r)
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("sparse: bad gzip stream: %v", err)
		}
		defer gz.Close()
		return readMatrixMarket(gz)
	}
	return readMatrixMarket(br)
}

func readMatrixMarket(r io.Reader) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("sparse: empty MatrixMarket stream")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 5 || header[0] != "%%matrixmarket" || header[1] != "matrix" {
		return nil, fmt.Errorf("sparse: bad MatrixMarket header %q", sc.Text())
	}
	format, field, symmetry := header[2], header[3], header[4]
	if format != "coordinate" {
		return nil, fmt.Errorf("sparse: unsupported format %q (only coordinate)", format)
	}
	switch field {
	case "real", "integer", "pattern":
	default:
		return nil, fmt.Errorf("sparse: unsupported field %q", field)
	}
	switch symmetry {
	case "general", "symmetric":
	default:
		return nil, fmt.Errorf("sparse: unsupported symmetry %q", symmetry)
	}

	// Skip comments, read size line.
	var rows, cols, nnz int
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &rows, &cols, &nnz); err != nil {
			return nil, fmt.Errorf("sparse: bad size line %q: %v", line, err)
		}
		break
	}
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("sparse: bad dimensions %d×%d", rows, cols)
	}
	if err := dimsError(rows, cols); err != nil {
		return nil, err
	}
	if symmetry == "symmetric" && rows != cols {
		return nil, fmt.Errorf("sparse: symmetric matrix must be square, got %d×%d", rows, cols)
	}
	if rows > nnz || cols > nnz {
		return nil, fmt.Errorf("sparse: %d×%d matrix declares only %d entries (need a stored diagonal)", rows, cols, nnz)
	}
	b := NewBuilder(rows, cols)
	read := 0
	for sc.Scan() && read < nnz {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return nil, fmt.Errorf("sparse: bad entry line %q", line)
		}
		i, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("sparse: bad row index %q: %v", f[0], err)
		}
		j, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("sparse: bad col index %q: %v", f[1], err)
		}
		v := 1.0
		if field != "pattern" {
			if len(f) < 3 {
				return nil, fmt.Errorf("sparse: missing value in %q", line)
			}
			v, err = strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("sparse: bad value %q: %v", f[2], err)
			}
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("sparse: entry (%d,%d) outside %d×%d", i, j, rows, cols)
		}
		i, j = i-1, j-1 // MatrixMarket is 1-based
		b.Add(i, j, v)
		if symmetry == "symmetric" && i != j {
			b.Add(j, i, v)
		}
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if read != nnz {
		return nil, fmt.Errorf("sparse: expected %d entries, found %d", nnz, read)
	}
	return b.Build(), nil
}

// WriteMatrixMarket writes A in coordinate real general format.
func WriteMatrixMarket(w io.Writer, a *CSR) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", a.Rows, a.Cols, a.NNZ()); err != nil {
		return err
	}
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, a.Col[k]+1, a.Val[k]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
