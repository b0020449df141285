// Package matrix implements dense matrices over GF(2^8) and the operations
// the erasure codecs in this repository are built from: multiplication,
// Gauss-Jordan inversion, rank computation, row selection, Kronecker
// expansion by an identity factor, and generator-matrix constructions
// (Vandermonde and systematic extended-Cauchy).
//
// A Matrix is row-major; Row returns a live view into the backing array so
// codecs can treat generator rows as coefficient vectors without copying.
package matrix

import (
	"errors"
	"fmt"
	"strings"

	"carousel/internal/gf256"
)

// ErrSingular is returned when an inversion or solve is attempted on a
// singular matrix.
var ErrSingular = errors.New("matrix: singular matrix")

// Matrix is a dense rows x cols matrix over GF(2^8).
type Matrix struct {
	rows, cols int
	data       []byte // row-major, len rows*cols
}

// New returns a zero matrix with the given shape. It panics if either
// dimension is negative or the product overflows.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]byte, rows*cols)}
}

// NewFromSlices builds a matrix from row slices. All rows must have equal
// length. The data is copied.
func NewFromSlices(rows [][]byte) (*Matrix, error) {
	if len(rows) == 0 {
		return New(0, 0), nil
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("matrix: row %d has %d columns, want %d", i, len(r), cols)
		}
		copy(m.Row(i), r)
	}
	return m, nil
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at (r, c).
func (m *Matrix) At(r, c int) byte { return m.data[r*m.cols+c] }

// Set assigns the element at (r, c).
func (m *Matrix) Set(r, c int, v byte) { m.data[r*m.cols+c] = v }

// Row returns a live view of row r. Mutating the returned slice mutates the
// matrix; callers that need an owned copy must copy it themselves.
func (m *Matrix) Row(r int) []byte { return m.data[r*m.cols : (r+1)*m.cols : (r+1)*m.cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Equal reports whether two matrices have the same shape and elements.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i := range m.data {
		if m.data[i] != o.data[i] {
			return false
		}
	}
	return true
}

// Mul returns m * o. It panics if the inner dimensions disagree; shape
// mismatches are programmer errors in this codebase since all shapes are
// derived from code parameters.
func (m *Matrix) Mul(o *Matrix) *Matrix {
	if m.cols != o.rows {
		panic(fmt.Sprintf("matrix: cannot multiply %dx%d by %dx%d", m.rows, m.cols, o.rows, o.cols))
	}
	out := New(m.rows, o.cols)
	for i := 0; i < m.rows; i++ {
		mrow := m.Row(i)
		orow := out.Row(i)
		for kk := 0; kk < m.cols; kk++ {
			c := mrow[kk]
			if c == 0 {
				continue
			}
			gf256.MulAddSlice(c, o.Row(kk), orow)
		}
	}
	return out
}

// SelectRows returns a new matrix formed from the given row indices, in
// order. Indices may repeat.
func (m *Matrix) SelectRows(idx []int) *Matrix {
	out := New(len(idx), m.cols)
	for i, r := range idx {
		if r < 0 || r >= m.rows {
			panic(fmt.Sprintf("matrix: row index %d out of range [0,%d)", r, m.rows))
		}
		copy(out.Row(i), m.Row(r))
	}
	return out
}

// SubMatrix returns the rectangle [r0, r1) x [c0, c1) as a new matrix.
func (m *Matrix) SubMatrix(r0, r1, c0, c1 int) *Matrix {
	if r0 < 0 || r1 > m.rows || c0 < 0 || c1 > m.cols || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("matrix: invalid submatrix [%d:%d, %d:%d] of %dx%d", r0, r1, c0, c1, m.rows, m.cols))
	}
	out := New(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(out.Row(i-r0), m.Row(i)[c0:c1])
	}
	return out
}

// HStack returns the horizontal concatenation [m | o]. Row counts must match.
func (m *Matrix) HStack(o *Matrix) *Matrix {
	if m.rows != o.rows {
		panic(fmt.Sprintf("matrix: cannot hstack %dx%d with %dx%d", m.rows, m.cols, o.rows, o.cols))
	}
	out := New(m.rows, m.cols+o.cols)
	for i := 0; i < m.rows; i++ {
		copy(out.Row(i), m.Row(i))
		copy(out.Row(i)[m.cols:], o.Row(i))
	}
	return out
}

// SwapRows exchanges rows i and j in place.
func (m *Matrix) SwapRows(i, j int) {
	if i == j {
		return
	}
	ri, rj := m.Row(i), m.Row(j)
	for c := range ri {
		ri[c], rj[c] = rj[c], ri[c]
	}
}

// Inverse returns the inverse of a square matrix by Gauss-Jordan
// elimination, or ErrSingular.
func (m *Matrix) Inverse() (*Matrix, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("matrix: cannot invert non-square %dx%d matrix", m.rows, m.cols)
	}
	n := m.rows
	work := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		// Find a pivot at or below the diagonal.
		pivot := -1
		for r := col; r < n; r++ {
			if work.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, ErrSingular
		}
		work.SwapRows(col, pivot)
		inv.SwapRows(col, pivot)
		// Scale the pivot row to make the pivot 1.
		if pv := work.At(col, col); pv != 1 {
			ipv := gf256.Inv(pv)
			gf256.MulSlice(ipv, work.Row(col), work.Row(col))
			gf256.MulSlice(ipv, inv.Row(col), inv.Row(col))
		}
		// Eliminate the column from every other row.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			if f := work.At(r, col); f != 0 {
				gf256.MulAddSlice(f, work.Row(col), work.Row(r))
				gf256.MulAddSlice(f, inv.Row(col), inv.Row(r))
			}
		}
	}
	return inv, nil
}

// Rank returns the rank of the matrix.
func (m *Matrix) Rank() int {
	work := m.Clone()
	rank := 0
	for col := 0; col < work.cols && rank < work.rows; col++ {
		pivot := -1
		for r := rank; r < work.rows; r++ {
			if work.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		work.SwapRows(rank, pivot)
		if pv := work.At(rank, col); pv != 1 {
			gf256.MulSlice(gf256.Inv(pv), work.Row(rank), work.Row(rank))
		}
		for r := rank + 1; r < work.rows; r++ {
			if f := work.At(r, col); f != 0 {
				gf256.MulAddSlice(f, work.Row(rank), work.Row(r))
			}
		}
		rank++
	}
	return rank
}

// ExpandIdentity returns the Kronecker product m ⊗ I_f: every element a at
// (r, c) becomes an f x f block a*I_f at (r*f, c*f). This is the "expansion"
// step of the Carousel construction (each symbol is split into f units).
func (m *Matrix) ExpandIdentity(f int) *Matrix {
	if f <= 0 {
		panic(fmt.Sprintf("matrix: invalid expansion factor %d", f))
	}
	if f == 1 {
		return m.Clone()
	}
	out := New(m.rows*f, m.cols*f)
	for r := 0; r < m.rows; r++ {
		src := m.Row(r)
		for t := 0; t < f; t++ {
			dst := out.Row(r*f + t)
			for c, v := range src {
				if v != 0 {
					dst[c*f+t] = v
				}
			}
		}
	}
	return out
}

// NNZ returns the number of nonzero elements.
func (m *Matrix) NNZ() int {
	n := 0
	for _, v := range m.data {
		if v != 0 {
			n++
		}
	}
	return n
}

// RowNNZ returns the number of nonzero elements in row r.
func (m *Matrix) RowNNZ(r int) int {
	n := 0
	for _, v := range m.Row(r) {
		if v != 0 {
			n++
		}
	}
	return n
}

// UnitColumn reports whether row r is a unit vector, and if so which column
// carries the 1.
func (m *Matrix) UnitColumn(r int) (int, bool) {
	col := -1
	for c, v := range m.Row(r) {
		switch v {
		case 0:
		case 1:
			if col >= 0 {
				return -1, false
			}
			col = c
		default:
			return -1, false
		}
	}
	if col < 0 {
		return -1, false
	}
	return col, true
}

// IsIdentity reports whether the matrix is square and equal to I.
func (m *Matrix) IsIdentity() bool {
	if m.rows != m.cols {
		return false
	}
	return m.Equal(Identity(m.rows))
}

// String renders the matrix as rows of two-digit hex values, matching the
// style of Fig. 5 in the paper.
func (m *Matrix) String() string {
	var b strings.Builder
	for r := 0; r < m.rows; r++ {
		for c, v := range m.Row(r) {
			if c > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%02x", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RankTracker incrementally tracks the rank of a growing set of rows by
// maintaining a row-echelon basis. It is the workhorse of unit selection
// and of the extended parallel-read planner.
type RankTracker struct {
	cols   int
	pivots []int
	rows   [][]byte
}

// NewRankTracker returns a tracker for rows with the given column count.
func NewRankTracker(cols int) *RankTracker {
	p := make([]int, cols)
	for i := range p {
		p[i] = -1
	}
	return &RankTracker{cols: cols, pivots: p}
}

// Add reduces row against the basis; if a nonzero remainder is left it
// joins the basis and Add returns true. The input is not modified.
func (t *RankTracker) Add(row []byte) bool {
	if len(row) != t.cols {
		panic(fmt.Sprintf("matrix: RankTracker row has %d columns, want %d", len(row), t.cols))
	}
	work := make([]byte, len(row))
	copy(work, row)
	for c := 0; c < t.cols; c++ {
		if work[c] == 0 {
			continue
		}
		r := t.pivots[c]
		if r < 0 {
			gf256.MulSlice(gf256.Inv(work[c]), work, work)
			t.pivots[c] = len(t.rows)
			t.rows = append(t.rows, work)
			return true
		}
		gf256.MulAddSlice(work[c], t.rows[r], work)
	}
	return false
}

// Rank returns the rank accumulated so far.
func (t *RankTracker) Rank() int { return len(t.rows) }

// Vandermonde returns the rows x cols matrix with entry (r, c) = x_r^c for
// x_r the r-th element of xs. Any min(rows,cols) rows are linearly
// independent when the xs are distinct.
func Vandermonde(xs []byte, cols int) *Matrix {
	m := New(len(xs), cols)
	for r, x := range xs {
		v := byte(1)
		row := m.Row(r)
		for c := 0; c < cols; c++ {
			row[c] = v
			v = gf256.Mul(v, x)
		}
	}
	return m
}

// SystematicCauchy returns an n x k generator matrix whose top k rows are
// the identity and whose bottom n-k rows form a Cauchy matrix
// 1/(x_i + y_j) with all x_i, y_j distinct. Every k x k submatrix of the
// result is invertible, so the matrix generates a systematic (n, k) MDS
// code. It returns an error when n > 256 or k > 256 - (n - k), the sizes at
// which distinct field elements run out.
func SystematicCauchy(n, k int) (*Matrix, error) {
	if k <= 0 || n <= k {
		return nil, fmt.Errorf("matrix: invalid systematic code shape n=%d k=%d", n, k)
	}
	r := n - k
	if k+r > 256 {
		return nil, fmt.Errorf("matrix: n=%d exceeds GF(256) capacity for a Cauchy construction", n)
	}
	m := New(n, k)
	for i := 0; i < k; i++ {
		m.Set(i, i, 1)
	}
	// x_i = i for parity rows, y_j = r + j for data columns; all distinct.
	for i := 0; i < r; i++ {
		row := m.Row(k + i)
		for j := 0; j < k; j++ {
			row[j] = gf256.Inv(byte(i) ^ byte(r+j))
		}
	}
	return m, nil
}

// ApplyToUnits multiplies the matrix by a column of equally sized byte
// buffers ("units"): out[r] = sum_c m[r][c] * in[c], with all arithmetic in
// GF(2^8) applied element-wise across the buffers. Rows that are unit
// vectors become plain copies and zero coefficients are skipped, so sparse
// generator matrices encode at the cost of their nonzero count only. out
// buffers must be preallocated with the same length as the in buffers.
func (m *Matrix) ApplyToUnits(in, out [][]byte) {
	if len(in) != m.cols || len(out) != m.rows {
		panic(fmt.Sprintf("matrix: ApplyToUnits shape mismatch: matrix %dx%d, in %d, out %d",
			m.rows, m.cols, len(in), len(out)))
	}
	for r := 0; r < m.rows; r++ {
		row := m.Row(r)
		dst := out[r]
		first := true
		for c, coef := range row {
			if coef == 0 {
				continue
			}
			if first {
				gf256.MulSlice(coef, in[c], dst)
				first = false
			} else {
				gf256.MulAddSlice(coef, in[c], dst)
			}
		}
		if first {
			clear(dst)
		}
	}
}

// ApplyToUnitsDense is ApplyToUnits without the zero-coefficient and
// unit-row fast paths: every coefficient, including zeros, costs a full
// multiply-accumulate pass. It exists only as the ablation baseline for the
// paper's sparsity optimization (Fig. 5 discussion) — use ApplyToUnits.
func (m *Matrix) ApplyToUnitsDense(in, out [][]byte) {
	if len(in) != m.cols || len(out) != m.rows {
		panic(fmt.Sprintf("matrix: ApplyToUnitsDense shape mismatch: matrix %dx%d, in %d, out %d",
			m.rows, m.cols, len(in), len(out)))
	}
	for r := 0; r < m.rows; r++ {
		row := m.Row(r)
		dst := out[r]
		clear(dst)
		for c, coef := range row {
			// Deliberately no skip: force the general kernel even for
			// zero and one coefficients.
			mt := gf256.MulRow(coef)
			for i, v := range in[c] {
				dst[i] ^= mt[v]
			}
		}
	}
}

// ApplyRowToUnits computes a single output unit out = sum_c row[c]*in[c].
func ApplyRowToUnits(row []byte, in [][]byte, out []byte) {
	if len(in) != len(row) {
		panic(fmt.Sprintf("matrix: ApplyRowToUnits shape mismatch: row %d, in %d", len(row), len(in)))
	}
	first := true
	for c, coef := range row {
		if coef == 0 {
			continue
		}
		if first {
			gf256.MulSlice(coef, in[c], out)
			first = false
		} else {
			gf256.MulAddSlice(coef, in[c], out)
		}
	}
	if first {
		clear(out)
	}
}
