// Package model represents metabolic networks: metabolites, reactions with
// exact rational stoichiometry, reversibility flags, and the construction
// of the stoichiometric matrix over internal metabolites.
//
// Networks are written in a plain-text reaction-equation format mirroring
// the listings in the paper's Figures 3–5:
//
//	# comment
//	name yeast1
//	external BIO
//	R4 : F6P + ATP => FDP + ADP
//	R3r : G6P <=> F6P
//	R70 : 7437 G6P + 611 G3P => 1000 BIO + 247 CO2
//
// A metabolite whose name ends in "ext" is external by convention (the
// paper's convention); the "external" directive marks additional external
// metabolites (e.g. biomass). External metabolites do not appear in the
// stoichiometric matrix. Reversibility is determined by the arrow:
// "=>" irreversible, "<=>" reversible.
package model

import (
	"fmt"
	"math/big"
	"sort"
	"strings"

	"elmocomp/internal/ratmat"
)

// Term is one metabolite participation in a reaction.
type Term struct {
	Coef *big.Rat // positive molar coefficient
	Met  string   // metabolite name
}

// Reaction is a named biochemical reaction.
type Reaction struct {
	Name       string
	Reversible bool
	Substrates []Term // consumed (left-hand side)
	Products   []Term // produced (right-hand side)
}

// Equation renders the reaction in the parser's input format (without the
// name prefix), e.g. "F6P + ATP => FDP + ADP".
func (r Reaction) Equation() string {
	arrow := "=>"
	if r.Reversible {
		arrow = "<=>"
	}
	return side(r.Substrates) + " " + arrow + " " + side(r.Products)
}

func side(terms []Term) string {
	if len(terms) == 0 {
		return ""
	}
	parts := make([]string, len(terms))
	for i, t := range terms {
		if t.Coef.Cmp(big.NewRat(1, 1)) == 0 {
			parts[i] = t.Met
		} else {
			parts[i] = t.Coef.RatString() + " " + t.Met
		}
	}
	return strings.Join(parts, " + ")
}

// Network is a metabolic network. Metabolite order is the order of first
// appearance (internal metabolites only are indexed); reaction order is
// declaration order.
type Network struct {
	Name      string
	Reactions []Reaction

	external map[string]bool // names forced external by directive
}

// New returns an empty network with the given name.
func New(name string) *Network {
	return &Network{Name: name, external: make(map[string]bool)}
}

// MarkExternal marks a metabolite name as external regardless of suffix.
func (n *Network) MarkExternal(met string) {
	if n.external == nil {
		n.external = make(map[string]bool)
	}
	n.external[met] = true
}

// IsExternal reports whether a metabolite is external: either marked via
// MarkExternal / the "external" directive, or named with the "ext" suffix.
func (n *Network) IsExternal(met string) bool {
	return n.external[met] || strings.HasSuffix(met, "ext")
}

// AddReaction appends a reaction. It returns an error on duplicate names
// or empty stoichiometry.
func (n *Network) AddReaction(r Reaction) error {
	if r.Name == "" {
		return fmt.Errorf("model: reaction with empty name")
	}
	if len(r.Substrates) == 0 && len(r.Products) == 0 {
		return fmt.Errorf("model: reaction %s has no stoichiometry", r.Name)
	}
	for _, existing := range n.Reactions {
		if existing.Name == r.Name {
			return fmt.Errorf("model: duplicate reaction name %s", r.Name)
		}
	}
	for _, t := range append(append([]Term{}, r.Substrates...), r.Products...) {
		if t.Coef == nil || t.Coef.Sign() <= 0 {
			return fmt.Errorf("model: reaction %s: non-positive coefficient for %s", r.Name, t.Met)
		}
	}
	n.Reactions = append(n.Reactions, r)
	return nil
}

// ReactionIndex returns the index of the named reaction, or -1.
func (n *Network) ReactionIndex(name string) int {
	for i, r := range n.Reactions {
		if r.Name == name {
			return i
		}
	}
	return -1
}

// ReactionNames returns the reaction names in declaration order.
func (n *Network) ReactionNames() []string {
	out := make([]string, len(n.Reactions))
	for i, r := range n.Reactions {
		out[i] = r.Name
	}
	return out
}

// Reversibilities returns the reversibility flag per reaction in order.
func (n *Network) Reversibilities() []bool {
	out := make([]bool, len(n.Reactions))
	for i, r := range n.Reactions {
		out[i] = r.Reversible
	}
	return out
}

// InternalMetabolites returns the internal metabolite names in order of
// first appearance across the reaction list.
func (n *Network) InternalMetabolites() []string {
	var names []string
	seen := make(map[string]bool)
	add := func(t Term) {
		if n.IsExternal(t.Met) || seen[t.Met] {
			return
		}
		seen[t.Met] = true
		names = append(names, t.Met)
	}
	for _, r := range n.Reactions {
		for _, t := range r.Substrates {
			add(t)
		}
		for _, t := range r.Products {
			add(t)
		}
	}
	return names
}

// ExternalMetabolites returns the external metabolite names, sorted.
func (n *Network) ExternalMetabolites() []string {
	seen := make(map[string]bool)
	var names []string
	for _, r := range n.Reactions {
		for _, t := range append(append([]Term{}, r.Substrates...), r.Products...) {
			if n.IsExternal(t.Met) && !seen[t.Met] {
				seen[t.Met] = true
				names = append(names, t.Met)
			}
		}
	}
	sort.Strings(names)
	return names
}

// Stoichiometry builds the exact stoichiometric matrix N over internal
// metabolites (rows, in InternalMetabolites order) and reactions (columns,
// in declaration order). N[i][j] > 0 means reaction j produces metabolite i.
func (n *Network) Stoichiometry() (*ratmat.Matrix, []string) {
	mets := n.InternalMetabolites()
	idx := make(map[string]int, len(mets))
	for i, m := range mets {
		idx[m] = i
	}
	N := ratmat.New(len(mets), len(n.Reactions))
	for j, r := range n.Reactions {
		for _, t := range r.Substrates {
			if i, ok := idx[t.Met]; ok {
				v := new(big.Rat).Neg(t.Coef)
				v.Add(v, N.At(i, j))
				N.Set(i, j, v)
			}
		}
		for _, t := range r.Products {
			if i, ok := idx[t.Met]; ok {
				v := new(big.Rat).Add(N.At(i, j), t.Coef)
				N.Set(i, j, v)
			}
		}
	}
	return N, mets
}

// Validate checks structural sanity: at least one reaction, every internal
// metabolite both produced and consumed by some reaction (counting
// reversible reactions in both roles). It returns a descriptive error for
// the first violation, or nil. Dead-end metabolites are legal networks —
// the reducer removes them — so Validate distinguishes fatal problems
// (none currently beyond construction-time checks) from warnings.
func (n *Network) Validate() []string {
	var warnings []string
	if len(n.Reactions) == 0 {
		return []string{"network has no reactions"}
	}
	produced := make(map[string]bool)
	consumed := make(map[string]bool)
	for _, r := range n.Reactions {
		for _, t := range r.Substrates {
			consumed[t.Met] = true
			if r.Reversible {
				produced[t.Met] = true
			}
		}
		for _, t := range r.Products {
			produced[t.Met] = true
			if r.Reversible {
				consumed[t.Met] = true
			}
		}
	}
	for _, m := range n.InternalMetabolites() {
		switch {
		case !produced[m]:
			warnings = append(warnings, fmt.Sprintf("internal metabolite %s is never produced", m))
		case !consumed[m]:
			warnings = append(warnings, fmt.Sprintf("internal metabolite %s is never consumed", m))
		}
	}
	return warnings
}

// Clone returns a deep copy of the network.
func (n *Network) Clone() *Network {
	c := New(n.Name)
	for k := range n.external {
		c.external[k] = true
	}
	c.Reactions = make([]Reaction, len(n.Reactions))
	for i, r := range n.Reactions {
		c.Reactions[i] = Reaction{
			Name:       r.Name,
			Reversible: r.Reversible,
			Substrates: cloneTerms(r.Substrates),
			Products:   cloneTerms(r.Products),
		}
	}
	return c
}

func cloneTerms(ts []Term) []Term {
	out := make([]Term, len(ts))
	for i, t := range ts {
		out[i] = Term{Coef: new(big.Rat).Set(t.Coef), Met: t.Met}
	}
	return out
}

// ReplaceReaction swaps the named reaction's stoichiometry for the given
// one, preserving position (Fig. 5's "modified reaction").
func (n *Network) ReplaceReaction(name string, r Reaction) error {
	i := n.ReactionIndex(name)
	if i < 0 {
		return fmt.Errorf("model: no reaction %s", name)
	}
	n.Reactions[i] = r
	return nil
}

// String renders the network in the parser's input format.
func (n *Network) String() string {
	var b strings.Builder
	// An empty name renders no directive: "name" with nothing after it
	// would not re-parse (the parser requires "name <value>").
	if n.Name != "" {
		fmt.Fprintf(&b, "name %s\n", n.Name)
	}
	var ext []string
	for k := range n.external {
		ext = append(ext, k)
	}
	sort.Strings(ext)
	for _, e := range ext {
		fmt.Fprintf(&b, "external %s\n", e)
	}
	for _, r := range n.Reactions {
		fmt.Fprintf(&b, "%s : %s\n", r.Name, r.Equation())
	}
	return b.String()
}
