package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"elmocomp"
)

// network is one generated input: the text the program under test
// receives and the key its expected result is pinned under.
type network struct {
	Key  string
	Text string
}

// profile sizes the workloads. The full profile is the benchmark; the
// smoke profile swaps in the toy network and a five-request script so
// bench_test.go can run all six workloads in seconds.
type profile struct {
	smoke bool
	// dd serves the double-description workloads 1, 2 and 6; ko3 is the
	// base of the knock-out scan; exact serves the exact-arithmetic
	// families 3 and 4 and the scan's on-demand requests.
	dd, ko3, exact network
	// warm is the tiny job that opens the fleet's worker links in set-up.
	warm         network
	qsubCombined int
	qsubFleet    int
	// objective and k rank and bound the on-demand stream of workload 4.
	objective map[string]string
	k         int
	// scan script shape: knockouts cold jobs, each resubmitted hitsPer
	// times, plus one on-demand family per objective (kCold streamed
	// cold, then kHit twice from the prefix cache).
	knockouts []network
	hitsPer   int
	families  []map[string]string
	kCold     int
	kHit      int
}

// scanKnockouts are the cold jobs of the scan: twelve reactions of
// yeast1-ko3 whose knock-out leaves at most 7,300 of its 18,870 modes.
// Those are the knock-outs a scan is after, and each is a job of 0.02 to
// 0.25 s, so the cold jobs, their resubmissions and the on-demand family
// fit a two-second repetition. R13r leaves 13 modes, few enough for the
// client to download their supports. The set is the same for every seed
// — the seed orders it — so that every seed measures the same amount of
// work.
var scanKnockouts = []string{
	"R12", "R13r", "R21", "R24", "R33", "R38", "R40", "R43", "R63", "R66", "R72", "R80r",
}

// dropReactions deletes reaction lines from a canonical network text.
func dropReactions(text string, names ...string) string {
	drop := make(map[string]bool, len(names))
	for _, n := range names {
		drop[n] = true
	}
	var out []string
	for _, ln := range strings.Split(text, "\n") {
		ln = strings.TrimSpace(ln)
		if ln == "" {
			continue
		}
		if !strings.HasPrefix(ln, "name ") && !strings.HasPrefix(ln, "external ") {
			if drop[strings.TrimSpace(strings.SplitN(ln, ":", 2)[0])] {
				continue
			}
		}
		out = append(out, ln)
	}
	return strings.Join(out, "\n") + "\n"
}

func builtinText(name string) (string, []string, error) {
	net, err := elmocomp.Builtin(name)
	if err != nil {
		return "", nil, err
	}
	return net.Canonical(), net.ReactionNames(), nil
}

// newProfile builds the inputs of one run from the seed: the seed picks
// the network variants here and the script order in newScript.
func newProfile(seed int64, smoke bool) (*profile, error) {
	toyText, toyNames, err := builtinText("toy")
	if err != nil {
		return nil, err
	}
	warm := network{Key: "toy-" + toyNames[6], Text: dropReactions(toyText, toyNames[6])}
	if smoke {
		toy := network{Key: "toy", Text: toyText}
		return &profile{
			smoke: true, dd: toy, ko3: toy, exact: toy, warm: warm,
			qsubCombined: 1, qsubFleet: 1,
			objective: map[string]string{toyNames[0]: "1"},
			k:         2,
			knockouts: []network{{Key: "toy-" + toyNames[1], Text: dropReactions(toyText, toyNames[1])}},
			hitsPer:   1,
			families:  []map[string]string{{toyNames[0]: "1"}},
			kCold:     2,
			kHit:      1,
		}, nil
	}
	text, _, err := builtinText("yeast1")
	if err != nil {
		return nil, err
	}
	// R17r, R18r and R19r are near-symmetric in Network I, and R22r and
	// R74r are knocked out to the same reduced network, so a seed's
	// variant costs what any other seed's does (candidates within 0.7 %,
	// bases equal) while the program still sees different text.
	ddVariant := []string{"R18r", "R19r", "R17r"}[((seed%3)+3)%3]
	exactVariant := []string{"R22r", "R74r"}[((seed%2)+2)%2]
	ko3Text := dropReactions(text, "R32r", "R36r", "R19r")
	p := &profile{
		warm:         warm,
		dd:           network{Key: "yeast1-dd-" + ddVariant, Text: dropReactions(text, "R32r", "R72", ddVariant)},
		ko3:          network{Key: "yeast1-ko3", Text: ko3Text},
		exact:        network{Key: "yeast1-exact-" + exactVariant, Text: dropReactions(text, "R32r", "R36r", "R19r", "R17r", "R18r", "R20r", "R7r", exactVariant)},
		qsubCombined: 2,
		qsubFleet:    4,
		objective:    map[string]string{"R9": "-1", "R38": "2"},
		k:            3,
		hitsPer:      4,
		families:     []map[string]string{{"R9": "1"}},
		kCold:        5,
		kHit:         3,
	}
	for _, r := range scanKnockouts {
		p.knockouts = append(p.knockouts, network{Key: "yeast1-ko3-" + r, Text: dropReactions(ko3Text, r)})
	}
	return p, nil
}

// request is one entry of the scan script.
type request struct {
	Net       network
	Backend   string // "" (nullspace, serial, one worker) | "ondemand"
	K         int
	Objective map[string]string
	// After is the index of the cold request whose completion makes
	// this one eligible (-1: eligible at once). It keeps a resubmission
	// from coalescing onto its still-running cold job, so the service's
	// cache counters stay exact.
	After int
	// Kind labels the latency sample: "cold", "hit", "stream", "prefix".
	Kind string
}

// ExpectKey is the expected.json key of the request's result.
func (r request) ExpectKey() string {
	if r.Backend == "ondemand" {
		return fmt.Sprintf("%s/ondemand-k%d-%s", r.Net.Key, r.K, objectiveKey(r.Objective))
	}
	return r.Net.Key
}

func objectiveKey(obj map[string]string) string {
	var parts []string
	for name, w := range obj {
		parts = append(parts, name+"="+w)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// newScript lays out the scan: the on-demand families stream first (a
// multi-second single-threaded job late in the script would leave the
// other client idle at the end), the cold knock-outs fall in seeded
// order into the first three fifths of the script, and every
// resubmission lands at a seeded position after its cold job. The tail
// is therefore cache hits only, the two clients finish together, and
// wall time does not depend on which job happens to come last.
func newScript(p *profile, seed int64) []request {
	rng := rand.New(rand.NewSource(seed))
	type keyed struct {
		at  float64
		req request
		id  int // cold requests: identity that After refers to
		dep int
	}
	var entries []keyed
	id := 0
	for _, obj := range p.families {
		cold := id
		id++
		entries = append(entries, keyed{at: -1, id: cold, dep: -1,
			req: request{Net: p.exact, Backend: "ondemand", K: p.kCold, Objective: obj, Kind: "stream"}})
		for i := 0; i < 2; i++ {
			entries = append(entries, keyed{at: rng.Float64(), id: -1, dep: cold,
				req: request{Net: p.exact, Backend: "ondemand", K: p.kHit, Objective: obj, Kind: "prefix"}})
		}
	}
	for _, ko := range p.knockouts {
		cold := id
		id++
		at := 0.6 * rng.Float64()
		entries = append(entries, keyed{at: at, id: cold, dep: -1, req: request{Net: ko, Kind: "cold"}})
		for i := 0; i < p.hitsPer; i++ {
			entries = append(entries, keyed{at: at + (1-at)*rng.Float64(), id: -1, dep: cold,
				req: request{Net: ko, Kind: "hit"}})
		}
	}
	sort.SliceStable(entries, func(a, b int) bool { return entries[a].at < entries[b].at })
	position := make(map[int]int)
	for i, e := range entries {
		if e.id >= 0 {
			position[e.id] = i
		}
	}
	script := make([]request, len(entries))
	for i, e := range entries {
		e.req.After = -1
		if e.dep >= 0 {
			e.req.After = position[e.dep]
		}
		script[i] = e.req
	}
	return script
}
