// Package linalg provides the dense float64 routines used on the hot path
// of the Nullspace Algorithm: rank computation by Gaussian elimination with
// partial pivoting, with a reusable workspace so the per-candidate
// algebraic rank test performs no allocation.
//
// The paper notes the rank of the support submatrix "must be computed by
// using a numerical algorithm such as the LU, QR or SVD"; partial-pivoted
// LU-style elimination is what efmtool and the authors' elmocomp release
// use in practice. Exact rational cross-checks live in package ratmat.
package linalg

import (
	"fmt"
	"math"
)

// DefaultTol is the relative pivot tolerance used by the rank test when the
// caller does not override it. Entries whose magnitude falls below
// DefaultTol × (largest magnitude in the matrix) are treated as zero.
const DefaultTol = 1e-9

// Rank returns the numerical rank of the row-major rows×cols matrix a,
// using Gaussian elimination with partial pivoting and the relative
// tolerance tol (DefaultTol if tol <= 0). The contents of a are destroyed.
func Rank(a []float64, rows, cols int, tol float64) int {
	if len(a) < rows*cols {
		panic(fmt.Sprintf("linalg: buffer %d too small for %dx%d", len(a), rows, cols))
	}
	if tol <= 0 {
		tol = DefaultTol
	}
	// Scale threshold by the largest entry so the test is invariant
	// under uniform scaling of the matrix.
	maxAbs := 0.0
	for i := 0; i < rows*cols; i++ {
		if v := math.Abs(a[i]); v > maxAbs {
			maxAbs = v
		}
	}
	if maxAbs == 0 {
		return 0
	}
	thresh := tol * maxAbs
	rank := 0
	for col := 0; col < cols && rank < rows; col++ {
		// Partial pivoting: largest magnitude in the column at or
		// below the current elimination row.
		pivRow, pivVal := -1, thresh
		for i := rank; i < rows; i++ {
			if v := math.Abs(a[i*cols+col]); v > pivVal {
				pivRow, pivVal = i, v
			}
		}
		if pivRow < 0 {
			continue // column already (numerically) eliminated
		}
		if pivRow != rank {
			for k := col; k < cols; k++ {
				a[rank*cols+k], a[pivRow*cols+k] = a[pivRow*cols+k], a[rank*cols+k]
			}
		}
		p := a[rank*cols+col]
		// Pin the pivot row and each target row as slices so the fused
		// scale-and-subtract loop runs without per-element bounds checks.
		prow := a[rank*cols+col : rank*cols+cols]
		for i := rank + 1; i < rows; i++ {
			f := a[i*cols+col] / p
			if f == 0 {
				continue
			}
			irow := a[i*cols+col : i*cols+cols]
			irow[0] = 0
			for k := 1; k < len(prow); k++ {
				irow[k] -= f * prow[k]
			}
		}
		rank++
	}
	return rank
}

// Workspace is a reusable scratch buffer for repeated rank tests of
// submatrices gathered from a fixed parent matrix. It is not safe for
// concurrent use; each worker goroutine owns one.
type Workspace struct {
	buf   []float64
	perm  []int    // pivot row permutation, reused across eliminations
	words []uint64 // bit-mask scratch of the caller's structural pass
}

// NewWorkspace returns a workspace able to hold a rows×cols matrix.
func NewWorkspace(rows, cols int) *Workspace {
	return &Workspace{buf: make([]float64, rows*cols)}
}

// Buffer returns a rows×cols scratch slice, growing the backing store if
// needed. The contents are unspecified.
func (w *Workspace) Buffer(rows, cols int) []float64 {
	n := rows * cols
	if cap(w.buf) < n {
		w.buf = make([]float64, n)
	}
	return w.buf[:n]
}

// Words returns an n-word scratch slice, growing the backing store if
// needed. The contents are unspecified. It is for the bit masks a caller
// keeps about the matrix it is about to gather, so a worker that owns the
// workspace needs no second scratch for them.
func (w *Workspace) Words(n int) []uint64 {
	if cap(w.words) < n {
		w.words = make([]uint64, n)
	}
	return w.words[:n]
}

// RankDeficiencyExceeds performs Gaussian elimination on the row-major
// rows×cols matrix a (destroyed) and reports whether the rank deficiency
// relative to cols (i.e. cols - rank) exceeds maxDef, stopping as early
// as the answer is known. When it returns false, def holds the exact
// deficiency (≤ maxDef). This is the hot elementarity test: candidates
// are rejected as soon as a second deficient column is found.
//
// maxAbs is the largest magnitude in a, which the caller that filled a
// already knows; entries below tol × maxAbs (DefaultTol if tol <= 0) are
// treated as zero. Row interchanges are performed on an index permutation
// instead of physically swapping row storage, and the inner
// scale-and-subtract is fused over pinned row slices. The pivot scan
// visits the logical rows in exactly the order the row-swapping Rank
// would (the permutation applies the same transpositions), so pivot
// choices — including ties — and every float operation match bit for bit.
func (w *Workspace) RankDeficiencyExceeds(a []float64, rows, cols int, maxAbs, tol float64, maxDef int) (exceeds bool, def int) {
	if len(a) < rows*cols {
		panic(fmt.Sprintf("linalg: buffer %d too small for %dx%d", len(a), rows, cols))
	}
	if tol <= 0 {
		tol = DefaultTol
	}
	if maxAbs == 0 {
		return cols > maxDef, cols
	}
	thresh := tol * maxAbs
	perm := w.permBuf(rows)
	rank := 0
	for col := 0; col < cols; col++ {
		// Columns that can no longer get a pivot (rows exhausted) are
		// all deficient.
		if rank == rows {
			def += cols - col
			return def > maxDef, def
		}
		pivIdx, pivVal := -1, thresh
		for i := rank; i < rows; i++ {
			if v := math.Abs(a[perm[i]*cols+col]); v > pivVal {
				pivIdx, pivVal = i, v
			}
		}
		if pivIdx < 0 {
			def++
			if def > maxDef {
				return true, def
			}
			continue
		}
		perm[rank], perm[pivIdx] = perm[pivIdx], perm[rank]
		pr := perm[rank] * cols
		p := a[pr+col]
		prow := a[pr+col : pr+cols]
		for i := rank + 1; i < rows; i++ {
			ri := perm[i] * cols
			f := a[ri+col] / p
			if f == 0 {
				continue
			}
			irow := a[ri+col : ri+cols]
			irow[0] = 0
			for k := 1; k < len(prow); k++ {
				irow[k] -= f * prow[k]
			}
		}
		rank++
	}
	return def > maxDef, def
}

// permBuf returns the identity permutation over n rows, reusing the
// workspace's buffer.
func (w *Workspace) permBuf(n int) []int {
	if cap(w.perm) < n {
		w.perm = make([]int, n)
	}
	w.perm = w.perm[:n]
	for i := range w.perm {
		w.perm[i] = i
	}
	return w.perm
}
