package elmocomp_test

import (
	"fmt"
	"sort"
	"strings"

	"elmocomp"
)

// The paper's Figure 1 network: computing all elementary flux modes and
// printing them as reaction-name supports.
func ExampleComputeEFMs() {
	net, err := elmocomp.Builtin("toy")
	if err != nil {
		panic(err)
	}
	res, err := elmocomp.ComputeEFMs(net, elmocomp.Config{})
	if err != nil {
		panic(err)
	}
	var supports []string
	for i := 0; i < res.Len(); i++ {
		supports = append(supports, strings.Join(res.SupportNames(i), " "))
	}
	sort.Strings(supports)
	fmt.Println(res.Len(), "elementary flux modes")
	for _, s := range supports {
		fmt.Println(s)
	}
	// Output:
	// 8 elementary flux modes
	// r1 r2 r3 r4 r9
	// r1 r2 r4 r6r r7
	// r1 r2 r6r r8r
	// r1 r3 r4 r5 r6r r9
	// r1 r4 r5 r7
	// r1 r5 r8r
	// r3 r4 r6r r8r r9
	// r4 r7 r8r
}

// The divide-and-conquer decomposition of section III-A: four disjoint
// classes over the zero/non-zero pattern of (r6r, r8r).
func ExampleComputeEFMs_divideAndConquer() {
	net, err := elmocomp.Builtin("toy")
	if err != nil {
		panic(err)
	}
	res, err := elmocomp.ComputeEFMs(net, elmocomp.Config{
		Algorithm: elmocomp.DivideAndConquer,
		Partition: []string{"r6r", "r8r"},
	})
	if err != nil {
		panic(err)
	}
	for _, sub := range res.Subproblems {
		fmt.Printf("%s: %d EFMs\n", sub.Pattern, sub.EFMs)
	}
	fmt.Println("union:", res.Len())
	// Output:
	// r6r=0,r8r=0: 2 EFMs
	// r6r!=0,r8r=0: 2 EFMs
	// r6r=0,r8r!=0: 2 EFMs
	// r6r!=0,r8r!=0: 2 EFMs
	// union: 8
}

// Exact flux reconstruction: the A→B→2P pathway carries twice the flux
// on the P exporter (r4) as on r7, by the 2P stoichiometry.
func ExampleResult_Flux() {
	net, err := elmocomp.Builtin("toy")
	if err != nil {
		panic(err)
	}
	res, err := elmocomp.ComputeEFMs(net, elmocomp.Config{})
	if err != nil {
		panic(err)
	}
	for i := 0; i < res.Len(); i++ {
		names := strings.Join(res.SupportNames(i), " ")
		if names != "r1 r4 r5 r7" {
			continue
		}
		flux, err := res.Flux(i)
		if err != nil {
			panic(err)
		}
		fmt.Printf("r4=%s r7=%s\n", flux["r4"].RatString(), flux["r7"].RatString())
	}
	// Output:
	// r4=2 r7=1
}

// Defining a network in the text format and screening a knockout.
func ExampleParseNetworkString() {
	net, err := elmocomp.ParseNetworkString(`
name demo
in   : Aext => A
up   : 2 A => B
side : A <=> C
out1 : B => Bext
out2 : C => Cext
`)
	if err != nil {
		panic(err)
	}
	res, err := elmocomp.ComputeEFMs(net, elmocomp.Config{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s: %d reactions, %d EFMs\n", net.Name(), net.NumReactions(), res.Len())
	// Output:
	// demo: 5 reactions, 2 EFMs
}

// Gene-knockout screening, one of the applications of elementary flux
// modes the paper's introduction cites (Trinh et al.): delete each
// reaction of a small fermentation network in turn and count the modes
// that still export ethanol. A deletion that leaves none is essential for
// the product; one that leaves only ethanol-producing modes couples all
// flux to it, a metabolic-engineering target.
func Example_knockout() {
	const source = `
name ferment
upt : GLCext => G6P
gly1 : G6P => 2 PYR + 2 ATP
ppp : G6P => PYR + NADPH
pdc : PYR => ACA + CO2
adh : ACA + NADH <=> ETOH
etex : ETOH => ETOHext
ackA : ACA => ACE + ATP
acex : ACE => ACEext
nadh : PYR => NADH + ACA
atpm : ATP => ATPext
nadpx : NADPH => NADPHext
co2x : CO2 => CO2ext
`
	efms := func(src string) *elmocomp.Result {
		net, err := elmocomp.ParseNetworkString(src)
		if err != nil {
			panic(err)
		}
		res, err := elmocomp.ComputeEFMs(net, elmocomp.Config{})
		if err != nil {
			panic(err)
		}
		return res
	}
	wild := efms(source)
	fmt.Printf("wild type: %d elementary flux modes, %d produce ethanol\n", wild.Len(), wild.CountUsing("etex"))
	for _, line := range strings.Split(source, "\n") {
		victim, _, ok := strings.Cut(line, " :")
		if !ok || victim == "upt" || victim == "etex" {
			continue // not a reaction, or a trivial knockout: substrate uptake / product export
		}
		res := efms(strings.Replace(source, line+"\n", "", 1))
		eth := res.CountUsing("etex")
		assessment := "tolerated"
		switch {
		case eth == 0:
			assessment = "ESSENTIAL for ethanol"
		case eth == res.Len():
			assessment = "couples all flux to ethanol (engineering target)"
		}
		fmt.Printf("%-6s %d EFMs, %d ethanol: %s\n", "Δ"+victim, res.Len(), eth, assessment)
	}
	// Output:
	// wild type: 4 elementary flux modes, 2 produce ethanol
	// Δgly1  1 EFMs, 0 ethanol: ESSENTIAL for ethanol
	// Δppp   2 EFMs, 1 ethanol: tolerated
	// Δpdc   2 EFMs, 2 ethanol: couples all flux to ethanol (engineering target)
	// Δadh   2 EFMs, 0 ethanol: ESSENTIAL for ethanol
	// ΔackA  2 EFMs, 2 ethanol: couples all flux to ethanol (engineering target)
	// Δacex  2 EFMs, 2 ethanol: couples all flux to ethanol (engineering target)
	// Δnadh  2 EFMs, 0 ethanol: ESSENTIAL for ethanol
	// Δatpm  1 EFMs, 1 ethanol: couples all flux to ethanol (engineering target)
	// Δnadpx 2 EFMs, 1 ethanol: tolerated
	// Δco2x  2 EFMs, 2 ethanol: couples all flux to ethanol (engineering target)
}
