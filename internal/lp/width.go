package lp

import (
	"cmp"
	"math/big"
)

// This file is everything about a dictionary that depends on its width.
// Narrow (a, det on int64) and wide (w, wdet on big.Int) run the same
// algorithm; a dictionary starts narrow when its program's rows and its
// first det are below the bound, widens once — at the end of the pivot
// that stores a magnitude at or past the bound — and never narrows.

// load returns a dictionary holding the program's integer rows under
// denominator det, with no basis yet: 1 for an elimination from
// scratch, ΠLᵢ for the phase-1 seed.
func (p *program) load(det *big.Int) *Dict {
	d := &Dict{prog: p, basisOf: make([]int, p.m), rowOf: make([]int, p.n)}
	for j := range d.rowOf {
		d.rowOf[j] = -1
	}
	if p.narrow != nil && det.IsInt64() && det.Int64() < p.bound {
		d.a = append([]int64(nil), p.narrow...)
		d.det = det.Int64()
		return d
	}
	d.w = cloneInts(p.rows)
	d.wdet.Set(det)
	return d
}

func cloneInts(src []big.Int) []big.Int {
	out := make([]big.Int, len(src))
	for k := range src {
		out[k].Set(&src[k])
	}
	return out
}

// widen moves the body to big.Int. It touches the dictionary only:
// dictionaries of one program are rebuilt concurrently.
func (d *Dict) widen() {
	d.w = make([]big.Int, len(d.a))
	for k, v := range d.a {
		if v != 0 {
			d.w[k].SetInt64(v)
		}
	}
	d.wdet.SetInt64(d.det)
	d.a, d.det = nil, 0
}

// Clone deep-copies the dictionary (fuzz and test helper).
func (d *Dict) Clone() *Dict {
	c := &Dict{
		prog:    d.prog,
		basisOf: append([]int(nil), d.basisOf...),
		rowOf:   append([]int(nil), d.rowOf...),
		pivots:  d.pivots,
	}
	if d.w == nil {
		c.a, c.det = append([]int64(nil), d.a...), d.det
		return c
	}
	c.w = cloneInts(d.w)
	c.wdet.Set(&d.wdet)
	return c
}

// Bytes returns the resident size of the body: 8 bytes an entry narrow,
// header plus limbs wide.
func (d *Dict) Bytes() int64 {
	if d.w == nil {
		return 8 * int64(len(d.a))
	}
	limbs := 0
	for k := range d.w {
		limbs += len(d.w[k].Bits())
	}
	return 32*int64(len(d.w)) + 8*int64(limbs)
}

// num returns the numerator det·T[r][j] — the wide entry itself, not to
// be mutated, or z set to the narrow one.
func (d *Dict) num(z *big.Int, r, j int) *big.Int {
	k := r*(d.prog.n+1) + j
	if d.w != nil {
		return &d.w[k]
	}
	return z.SetInt64(d.a[k])
}

// denom returns det under the same contract as num.
func (d *Dict) denom(z *big.Int) *big.Int {
	if d.w != nil {
		return &d.wdet
	}
	return z.SetInt64(d.det)
}

func (d *Dict) swapRows(i, k int) {
	w := d.prog.n + 1
	if d.w != nil {
		swapRows(d.w, i, k, w)
	} else {
		swapRows(d.a, i, k, w)
	}
}

func swapRows[E any](body []E, i, k, w int) {
	for j := 0; j < w && i != k; j++ {
		body[i*w+j], body[k*w+j] = body[k*w+j], body[i*w+j]
	}
}

// Sign returns the sign of tableau entry T[r][j]; column n is the
// right-hand side.
func (d *Dict) Sign(r, j int) int {
	k := r*(d.prog.n+1) + j
	if d.w != nil {
		return d.w[k].Sign()
	}
	v := d.a[k]
	return int(v>>63) | int(uint64(-v)>>63) // cmp.Compare(v, 0), small enough to inline
}

// eliminate is the fraction-free pivot on (r, s):
//
//	a'[i][j] = (a[i][j]·p − a[i][s]·a[r][j]) / det   (i != r),   det' = p,
//
// with p = a[r][s]; row r keeps its entries. The division is exact:
// before and after, the body is det·T for det = |det A'_B|, and Cramer's
// rule makes that integral for the integer matrix A'. A negative p
// first negates row r, which carries the sign flip into every other row
// and keeps det positive.
func (d *Dict) eliminate(r, s int) {
	if d.w != nil {
		d.eliminateWide(r, s)
	} else if d.eliminateNarrow(r, s) >= d.prog.bound {
		d.widen()
	}
}

// eliminateNarrow returns the largest magnitude it stored. Inputs are
// below 2^31, so no product or difference overflows; a quotient may
// exceed the bound but not int64, and the caller widens on it.
func (d *Dict) eliminateNarrow(r, s int) int64 {
	w := d.prog.n + 1
	prow := d.a[r*w : (r+1)*w]
	if prow[s] < 0 {
		for j, v := range prow {
			prow[j] = -v
		}
	}
	p, det := prow[s], d.det
	mx := p
	for i := 0; i < d.prog.m; i++ {
		row := d.a[i*w : (i+1)*w]
		f := row[s]
		switch {
		case i == r || (f == 0 && p == det):
		case p == det:
			// T[r][s] = 1, the common pivot on stoichiometry: only the
			// columns where row r is nonzero change.
			for j, q := range prow {
				if q != 0 {
					v := row[j] - f*q/det
					row[j] = v
					mx = max(mx, v, -v)
				}
			}
		default:
			for j, v := range row {
				v = (v*p - f*prow[j]) / det
				row[j] = v
				mx = max(mx, v, -v)
			}
		}
	}
	d.det = p
	return mx
}

func (d *Dict) eliminateWide(r, s int) {
	w := d.prog.n + 1
	prow := d.w[r*w : (r+1)*w]
	if prow[s].Sign() < 0 {
		for j := range prow {
			prow[j].Neg(&prow[j])
		}
	}
	p, det := &prow[s], &d.wdet
	rescale := p.Cmp(det) != 0
	var f, x, y, rem big.Int
	for i := 0; i < d.prog.m; i++ {
		row := d.w[i*w : (i+1)*w]
		if i == r || (row[s].Sign() == 0 && !rescale) {
			continue
		}
		f.Set(&row[s]) // the loop overwrites row[s]
		for j := range row {
			v, q := &row[j], &prow[j]
			switch {
			case f.Sign() == 0 || q.Sign() == 0:
				if v.Sign() == 0 || !rescale {
					continue
				}
				x.Mul(v, p)
			case v.Sign() == 0:
				x.Neg(x.Mul(&f, q))
			default:
				x.Sub(x.Mul(v, p), y.Mul(&f, q))
			}
			v.QuoRem(&x, det, &rem)
		}
	}
	det.Set(p)
}

// ratioCmp compares T[a][col]/T[a][s] with T[b][col]/T[b][s] for rows
// with positive entries in column s, by cross-multiplication: the sign
// of T[a][col]·T[b][s] − T[b][col]·T[a][s]. Narrow factors are below
// 2^31.
func (d *Dict) ratioCmp(a, b, s, col int, scratch *[2]big.Int) int {
	w := d.prog.n + 1
	if d.w != nil {
		x, y := &scratch[0], &scratch[1]
		return x.Mul(&d.w[a*w+col], &d.w[b*w+s]).Cmp(y.Mul(&d.w[b*w+col], &d.w[a*w+s]))
	}
	return cmp.Compare(d.a[a*w+col]*d.a[b*w+s], d.a[b*w+col]*d.a[a*w+s])
}

// SignAfterPivot returns the sign entry (i, j) would have after
// Pivot(r, l), computed without pivoting: T'[i][j] = T[i][j] −
// T[i][l]·T[r][j]/p with p = T[r][l] > 0, so the sign is that of
// T[i][j]·T[r][l] − T[r][j]·T[i][l]. Only equal-signed nonzero products
// are multiplied out. Requires i != r.
func (d *Dict) SignAfterPivot(i, j, r, l int) int {
	sij, sub := d.Sign(i, j), d.Sign(i, l)*d.Sign(r, j)
	switch {
	case sub == 0 || sij == -sub:
		return sij
	case sij == 0:
		return -sub
	}
	var scratch [2]big.Int
	return d.ratioCmp(i, r, l, j, &scratch) // the same cross-product
}

// sumSign returns the sign of column j summed over the rows whose basic
// variable is at or past from — phase 1's price of j, negated.
func (d *Dict) sumSign(j, from int) int {
	w := d.prog.n + 1
	var acc int64
	var wacc big.Int
	for r, v := range d.basisOf {
		switch {
		case v < from:
		case d.w != nil:
			wacc.Add(&wacc, &d.w[r*w+j])
		default:
			acc += d.a[r*w+j]
		}
	}
	return cmp.Compare(acc, 0) + wacc.Sign() // one of the two stayed zero
}
