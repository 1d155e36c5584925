// Package reduce implements the preprocessing step of the Nullspace
// Algorithm: compressing a metabolic network to an equivalent smaller one
// before elementary-flux-mode enumeration (the paper's 62×78 → 35×55 and
// 63×83 → 40×61 reductions).
//
// Three exact, EFM-preserving transformations are applied to a fixpoint:
//
//  1. Zero-flux elimination: a reaction whose row in a kernel basis of N is
//     zero can never carry steady-state flux and is removed (this subsumes
//     dead-end metabolite analysis).
//  2. Enzyme subsets: reactions whose kernel rows are proportional carry
//     proportional flux in every steady state and are merged into a single
//     column (Σ αⱼ·Nⱼ); a subset whose sign constraints admit no direction
//     is removed entirely, and one that only admits the negative direction
//     is flipped.
//  3. Redundant constraints: linearly dependent stoichiometry rows
//     (conservation relations) are dropped, as are all-zero rows.
//
// Optionally (Options.MergeDuplicates), columns with identical
// stoichiometry are collapsed: on Network I that is R23 and R77, which
// the paper lists with identical stoichiometry. No merging of columns
// reaches the paper's 55 for Network I: its 760,254 EFMs use 74
// reactions in 57 distinct occurrence patterns, and reactions that share
// a column share a pattern, so a compression that keeps every EFM keeps
// at least 57 columns. Merging duplicates identifies flux modes that
// differ only in which duplicate carries the flux, so EFM
// *multiplicities* change even though the biochemical pathway set does
// not. Antiparallel columns (N_j = −N_i) are not
// collapsed: an EFM may use both. Expansion maps all flux to the
// representative column.
//
// Every column has one expansion, Members, valid for flux of either
// sign: a reversible column's members are all reversible reactions, and
// an irreversible column's irreversible members have positive
// coefficients. So the original reactions a mode uses are the members
// of its support columns (SupportNames), with no flux to reconstruct.
//
// All arithmetic is exact (math/big.Rat).
package reduce

import (
	"fmt"
	"math/big"
	"sort"
	"strings"
	"unsafe"

	"elmocomp/internal/model"
	"elmocomp/internal/ratmat"
)

// Member records an original reaction's participation in a reduced column:
// in every steady state, originalFlux[Index] = Coef × reducedFlux[column].
type Member struct {
	Index int      // original reaction index
	Coef  *big.Rat // coupling coefficient (may be negative)
}

// Column is one reaction of the reduced network.
type Column struct {
	Name       string // representative original reaction name(s), "*"-joined
	Reversible bool
	Members    []Member
}

// Reduced is a compressed network together with the mapping back to the
// original reaction space.
type Reduced struct {
	Original *model.Network
	N        *ratmat.Matrix // m'×q' reduced stoichiometry, full row rank
	Mets     []string       // kept internal metabolite names (rows of N)
	Cols     []Column       // q' reduced reactions (columns of N)
	Zero     []int          // original reaction indices proven zero-flux
}

// Options configure the reduction.
type Options struct {
	// MergeDuplicates collapses columns with identical stoichiometry;
	// antiparallel ones stay apart (see the package comment for the
	// semantics).
	MergeDuplicates bool
}

// maxRounds is a generous bound on the fixpoint iteration; reaching it
// means the passes oscillate, which is a bug, not an input property.
const maxRounds = 50

// Network compresses a metabolic network. The zero Options value performs
// only the exactly-EFM-preserving reductions.
func Network(n *model.Network, opts Options) (*Reduced, error) {
	N, mets := n.Stoichiometry()
	cols := make([]Column, len(n.Reactions))
	for i, r := range n.Reactions {
		cols[i] = Column{
			Name:       r.Name,
			Reversible: r.Reversible,
			Members:    []Member{{Index: i, Coef: big.NewRat(1, 1)}},
		}
	}
	red := &Reduced{Original: n, N: N, Mets: mets, Cols: cols}

	for round := 0; round < maxRounds; round++ {
		changed := false
		if red.signPrune() {
			changed = true
		}
		if red.tightenDirections() {
			changed = true
		}
		if red.dropZeroAndMergeSubsets() {
			changed = true
		}
		if opts.MergeDuplicates && red.mergeDuplicateColumns() {
			changed = true
		}
		if red.dropRedundantRows() {
			changed = true
		}
		if !changed {
			sort.Ints(red.Zero)
			return red, nil
		}
	}
	return nil, fmt.Errorf("reduce: no fixpoint after %d rounds", maxRounds)
}

// signPrune removes reactions that the irreversibility constraints force
// to zero, row by row: if no reaction can consume (or none can produce) a
// metabolite, its steady-state balance forces every reaction touching it
// to zero flux. This catches constraints invisible to the kernel test
// (which ignores signs), e.g. a metabolite produced by two irreversible
// reactions and consumed by none. Iterated to a fixpoint by the caller.
func (r *Reduced) signPrune() bool {
	m, q := r.N.Rows(), len(r.Cols)
	drop := make([]bool, q)
	changed := false
	for i := 0; i < m; i++ {
		canNeg, canPos := false, false
		for j := 0; j < q; j++ {
			if drop[j] {
				continue
			}
			s := r.N.At(i, j).Sign()
			if s == 0 {
				continue
			}
			rev := r.Cols[j].Reversible
			if s > 0 || rev {
				canPos = true
			}
			if s < 0 || rev {
				canNeg = true
			}
		}
		if canPos == canNeg {
			continue // balanced (or untouched) row
		}
		// Row can only move one way: every touching reaction is zero.
		for j := 0; j < q; j++ {
			if !drop[j] && r.N.At(i, j).Sign() != 0 {
				drop[j] = true
				changed = true
			}
		}
	}
	if !changed {
		return false
	}
	var keep []int
	for j := 0; j < q; j++ {
		if drop[j] {
			r.Zero = append(r.Zero, r.originalIndices(j)...)
		} else {
			keep = append(keep, j)
		}
	}
	cols := make([]Column, len(keep))
	vecs := make([][]*big.Rat, len(keep))
	for k, j := range keep {
		cols[k] = r.Cols[j]
		vecs[k] = r.columnVec(j)
	}
	r.replaceColumns(cols, vecs)
	return true
}

// tightenDirections converts reversible reactions whose direction is
// forced by a metabolite balance into irreversible ones. For row i, if
// every term except reaction j's can only be non-negative, then j's term
// must be non-positive, fixing j's sign. A reaction fixed to its backward
// direction is re-oriented (column and expansion negated) so that the
// reduced network's canonical direction is always feasible.
func (r *Reduced) tightenDirections() bool {
	m, q := r.N.Rows(), len(r.Cols)
	changed := false
	for j := 0; j < q; j++ {
		if !r.Cols[j].Reversible {
			continue
		}
		forcedPos, forcedNeg := false, false
		for i := 0; i < m && !(forcedPos && forcedNeg); i++ {
			ej := r.N.At(i, j).Sign()
			if ej == 0 {
				continue
			}
			othersCanPos, othersCanNeg := false, false
			for k := 0; k < q; k++ {
				if k == j {
					continue
				}
				s := r.N.At(i, k).Sign()
				if s == 0 {
					continue
				}
				rev := r.Cols[k].Reversible
				if s > 0 || rev {
					othersCanPos = true
				}
				if s < 0 || rev {
					othersCanNeg = true
				}
			}
			// Balance: ej·rj + others = 0.
			if !othersCanPos {
				// others ≤ 0 ⇒ ej·rj ≥ 0.
				if ej > 0 {
					forcedPos = true
				} else {
					forcedNeg = true
				}
			}
			if !othersCanNeg {
				// others ≥ 0 ⇒ ej·rj ≤ 0.
				if ej > 0 {
					forcedNeg = true
				} else {
					forcedPos = true
				}
			}
		}
		switch {
		case forcedPos && forcedNeg:
			// Both directions excluded: zero flux. Leave it to
			// signPrune/kernel passes via marking irreversible both
			// ways is impossible; force removal directly.
			r.Zero = append(r.Zero, r.originalIndices(j)...)
			r.dropColumn(j)
			return true // indices shifted; caller re-runs
		case forcedPos:
			r.Cols[j].Reversible = false
			changed = true
		case forcedNeg:
			r.flipColumn(j)
			r.Cols[j].Reversible = false
			changed = true
		}
	}
	return changed
}

// flipColumn negates column j and its expansion coefficients: after the
// flip, positive reduced flux means the original backward direction.
func (r *Reduced) flipColumn(j int) {
	for i := 0; i < r.N.Rows(); i++ {
		v := new(big.Rat).Neg(r.N.At(i, j))
		r.N.Set(i, j, v)
	}
	c := &r.Cols[j]
	for k, m := range c.Members {
		c.Members[k] = Member{Index: m.Index, Coef: new(big.Rat).Neg(m.Coef)}
	}
	c.Name = c.Name + "'"
}

// dropColumn removes column j entirely.
func (r *Reduced) dropColumn(j int) {
	q := len(r.Cols)
	cols := make([]Column, 0, q-1)
	vecs := make([][]*big.Rat, 0, q-1)
	for k := 0; k < q; k++ {
		if k == j {
			continue
		}
		cols = append(cols, r.Cols[k])
		vecs = append(vecs, r.columnVec(k))
	}
	r.replaceColumns(cols, vecs)
}

// dropZeroAndMergeSubsets performs one round of kernel-based zero-flux
// removal and enzyme-subset merging. It reports whether anything changed.
func (r *Reduced) dropZeroAndMergeSubsets() bool {
	q := len(r.Cols)
	if q == 0 {
		return false
	}
	K, _ := r.N.Kernel()
	d := K.Cols()

	// Zero kernel row ⇒ zero flux in every steady state.
	type group struct {
		rep   int        // column index of representative
		cols  []int      // members (includes rep)
		ratio []*big.Rat // flux ratio member/rep
	}
	groups := make(map[string]*group)
	var order []string // deterministic iteration
	var zero []int
	for i := 0; i < q; i++ {
		// Canonical form of kernel row i: divided by first non-zero.
		first := -1
		for j := 0; j < d; j++ {
			if K.At(i, j).Sign() != 0 {
				first = j
				break
			}
		}
		if first < 0 {
			zero = append(zero, i)
			continue
		}
		var key strings.Builder
		lead := K.At(i, first)
		tmp := new(big.Rat)
		fmt.Fprintf(&key, "%d|", first)
		for j := first; j < d; j++ {
			tmp.Quo(K.At(i, j), lead)
			key.WriteString(tmp.RatString())
			key.WriteByte(',')
		}
		k := key.String()
		g, ok := groups[k]
		if !ok {
			g = &group{rep: i}
			groups[k] = g
			order = append(order, k)
		}
		// ratio = lead_i / lead_rep (rows proportional ⇒ this is the
		// flux coupling coefficient).
		var ratio *big.Rat
		if g.rep == i {
			ratio = big.NewRat(1, 1)
		} else {
			repFirst := -1
			for j := 0; j < d; j++ {
				if K.At(g.rep, j).Sign() != 0 {
					repFirst = j
					break
				}
			}
			ratio = new(big.Rat).Quo(K.At(i, repFirst), K.At(g.rep, repFirst))
		}
		g.cols = append(g.cols, i)
		g.ratio = append(g.ratio, ratio)
	}

	changed := len(zero) > 0
	for _, i := range zero {
		r.Zero = append(r.Zero, r.originalIndices(i)...)
	}

	// Build the new column list.
	var newCols []Column
	var newVecs [][]*big.Rat
	m := r.N.Rows()
	for _, k := range order {
		g := groups[k]
		// Direction feasibility under the members' sign constraints.
		posOK, negOK := true, true
		for gi, ci := range g.cols {
			rev := r.Cols[ci].Reversible
			if rev {
				continue
			}
			if g.ratio[gi].Sign() > 0 {
				negOK = false
			} else {
				posOK = false
			}
		}
		if !posOK && !negOK {
			// Subset admits no direction: every member is zero.
			for _, ci := range g.cols {
				r.Zero = append(r.Zero, r.originalIndices(ci)...)
			}
			changed = true
			continue
		}
		flip := false
		if !posOK {
			flip = true // orient the merged column along its feasible direction
		}
		if len(g.cols) > 1 || flip {
			changed = true
		}
		col, vec := r.mergeGroup(g.cols, g.ratio, flip, posOK && negOK, m)
		newCols = append(newCols, col)
		newVecs = append(newVecs, vec)
	}
	if !changed {
		return false
	}
	r.replaceColumns(newCols, newVecs)
	return true
}

// mergeGroup builds the merged column Σ ratio_j·N_j over the group,
// negated if flip is set, and expands it through each member column's
// members scaled by its ratio. A negative ratio is only feasible on a
// reversible member, whose members are all reversible, so the one
// expansion stays sign-correct for either direction of the merged
// column.
func (r *Reduced) mergeGroup(cols []int, ratios []*big.Rat, flip, reversible bool, m int) (Column, []*big.Rat) {
	vec := make([]*big.Rat, m)
	for i := range vec {
		vec[i] = new(big.Rat)
	}
	var names []string
	var members []Member
	tmp := new(big.Rat)
	for gi, ci := range cols {
		ratio := new(big.Rat).Set(ratios[gi])
		if flip {
			ratio.Neg(ratio)
		}
		names = append(names, r.Cols[ci].Name)
		for i := 0; i < m; i++ {
			tmp.Mul(ratio, r.N.At(i, ci))
			vec[i].Add(vec[i], tmp)
		}
		for _, mem := range r.Cols[ci].Members {
			members = append(members, Member{
				Index: mem.Index,
				Coef:  new(big.Rat).Mul(ratio, mem.Coef),
			})
		}
	}
	col := Column{
		Name:       strings.Join(names, "*"),
		Reversible: reversible,
		Members:    members,
	}
	return col, vec
}

// mergeDuplicateColumns collapses columns with identical stoichiometry
// vectors (same direction only). Every EFM carries flux on at most one
// member of a same-direction duplicate group — two active duplicates can
// always be consolidated onto one, contradicting minimality — so the merge
// only collapses EFM multiplicity; the pathway set is unchanged.
// Antiparallel columns (N_j = −N_i) are deliberately NOT merged: an EFM
// may legitimately use both (a futile 2-cycle, or a pathway whose return
// leg reuses the reverse step), so merging them would delete real modes.
// Reports whether anything changed.
func (r *Reduced) mergeDuplicateColumns() bool {
	m, q := r.N.Rows(), len(r.Cols)
	canonical := make(map[string][]int)
	var order []string
	for j := 0; j < q; j++ {
		var key strings.Builder
		for i := 0; i < m; i++ {
			key.WriteString(r.N.At(i, j).RatString())
			key.WriteByte(',')
		}
		k := key.String()
		if _, ok := canonical[k]; !ok {
			order = append(order, k)
		}
		canonical[k] = append(canonical[k], j)
	}

	changed := false
	var newCols []Column
	var newVecs [][]*big.Rat
	for _, k := range order {
		es := canonical[k]
		rep := es[0]
		if len(es) == 1 {
			newCols = append(newCols, r.Cols[rep])
			newVecs = append(newVecs, r.columnVec(rep))
			continue
		}
		changed = true
		// The merged column can run backward iff any member can. Its flux,
		// of either sign, expands through the first reversible member when
		// there is one, else through the first member, so original sign
		// constraints stay satisfied.
		var names []string
		for _, e := range es {
			names = append(names, r.Cols[e].Name)
			if r.Cols[e].Reversible && !r.Cols[rep].Reversible {
				rep = e
			}
		}
		col := Column{
			Name:       strings.Join(names, "|"),
			Reversible: r.Cols[rep].Reversible,
			Members:    cloneMembers(r.Cols[rep].Members),
		}
		newCols = append(newCols, col)
		newVecs = append(newVecs, r.columnVec(rep))
	}
	if !changed {
		return false
	}
	r.replaceColumns(newCols, newVecs)
	return true
}

// columnVec extracts column j of N as a fresh vector.
func (r *Reduced) columnVec(j int) []*big.Rat {
	m := r.N.Rows()
	vec := make([]*big.Rat, m)
	for i := 0; i < m; i++ {
		vec[i] = new(big.Rat).Set(r.N.At(i, j))
	}
	return vec
}

// replaceColumns rebuilds N and Cols from the given column vectors.
func (r *Reduced) replaceColumns(cols []Column, vecs [][]*big.Rat) {
	m := r.N.Rows()
	N := ratmat.New(m, len(cols))
	for j, vec := range vecs {
		for i := 0; i < m; i++ {
			N.Set(i, j, vec[i])
		}
	}
	r.N = N
	r.Cols = cols
}

// dropRedundantRows removes all-zero and linearly dependent rows.
func (r *Reduced) dropRedundantRows() bool {
	keep := r.N.IndependentRows()
	if len(keep) == r.N.Rows() {
		return false
	}
	r.N = r.N.SelectRows(keep)
	mets := make([]string, len(keep))
	for i, ri := range keep {
		mets[i] = r.Mets[ri]
	}
	r.Mets = mets
	return true
}

// originalIndices lists the original reaction indices bundled in reduced
// column i.
func (r *Reduced) originalIndices(i int) []int {
	out := make([]int, len(r.Cols[i].Members))
	for k, m := range r.Cols[i].Members {
		out[k] = m.Index
	}
	return out
}

// Reversibilities returns the reversibility flags of the reduced columns.
func (r *Reduced) Reversibilities() []bool {
	out := make([]bool, len(r.Cols))
	for i, c := range r.Cols {
		out[i] = c.Reversible
	}
	return out
}

// ColumnIndexByOriginal returns the reduced column carrying the named
// original reaction's flux, or -1 if the reaction was proven zero-flux or
// is a non-representative duplicate.
func (r *Reduced) ColumnIndexByOriginal(name string) int {
	orig := r.Original.ReactionIndex(name)
	if orig < 0 {
		return -1
	}
	for j, c := range r.Cols {
		for _, m := range c.Members {
			if m.Index == orig {
				return j
			}
		}
	}
	return -1
}

// SupportNames returns the sorted original names of the reactions that
// carry flux when exactly the given reduced columns do: the members of
// those columns. Columns partition their members and no coupling
// coefficient is zero, so this is the support of the expanded flux of
// any mode whose support is cols.
func (r *Reduced) SupportNames(cols []int) []string {
	var names []string
	for _, c := range cols {
		for _, m := range r.Cols[c].Members {
			names = append(names, r.Original.Reactions[m.Index].Name)
		}
	}
	sort.Strings(names)
	return names
}

// Expand maps a reduced flux vector (length len(Cols)) to the original
// reaction space (length len(Original.Reactions)), exactly.
func (r *Reduced) Expand(v []*big.Rat) []*big.Rat {
	if len(v) != len(r.Cols) {
		panic(fmt.Sprintf("reduce: flux length %d != %d columns", len(v), len(r.Cols)))
	}
	out := make([]*big.Rat, len(r.Original.Reactions))
	for i := range out {
		out[i] = new(big.Rat)
	}
	tmp := new(big.Rat)
	for j, c := range r.Cols {
		if v[j].Sign() == 0 {
			continue
		}
		for _, m := range c.Members {
			tmp.Mul(m.Coef, v[j])
			out[m.Index].Add(out[m.Index], tmp)
		}
	}
	return out
}

func cloneMembers(ms []Member) []Member {
	out := make([]Member, len(ms))
	for i, m := range ms {
		out[i] = Member{Index: m.Index, Coef: new(big.Rat).Set(m.Coef)}
	}
	return out
}

// Bytes estimates the resident size of the reduction together with the
// original network it maps back to: what keeping it alive costs a cache.
func (r *Reduced) Bytes() int64 {
	n := int64(unsafe.Sizeof(*r)) + r.N.Bytes() + int64(len(r.Zero))*int64(unsafe.Sizeof(0))
	for _, met := range r.Mets {
		n += int64(unsafe.Sizeof(met)) + int64(len(met))
	}
	for _, c := range r.Cols {
		n += int64(unsafe.Sizeof(c)) + int64(len(c.Name))
		for _, m := range c.Members {
			n += int64(unsafe.Sizeof(m)) + ratmat.RatBytes(m.Coef)
		}
	}
	n += int64(unsafe.Sizeof(*r.Original)) + int64(len(r.Original.Name))
	for _, rx := range r.Original.Reactions {
		n += int64(unsafe.Sizeof(rx)) + int64(len(rx.Name))
		for _, side := range [][]model.Term{rx.Substrates, rx.Products} {
			for _, t := range side {
				n += int64(unsafe.Sizeof(t)) + int64(len(t.Met)) + ratmat.RatBytes(t.Coef)
			}
		}
	}
	return n
}

// Summary returns a one-line description of the reduction.
func (r *Reduced) Summary() string {
	return fmt.Sprintf("%s: %dx%d -> %dx%d (%d reactions proven zero-flux)",
		r.Original.Name,
		len(r.Original.InternalMetabolites()), len(r.Original.Reactions),
		r.N.Rows(), r.N.Cols(), len(r.Zero))
}
