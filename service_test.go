package elmocomp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"elmocomp/internal/bitset"
	"elmocomp/internal/core"
)

func TestRequestKeyCoalescesExecutionShape(t *testing.T) {
	net, err := Builtin("toy")
	if err != nil {
		t.Fatal(err)
	}
	base := RequestKey(net, Config{})
	if len(base) != 64 {
		t.Fatalf("key length %d, want 64 hex chars", len(base))
	}
	// The key's field list changed (the split= and tol= terms are gone),
	// so every key value did: the domain string is what keeps a v2 key
	// from ever being compared with a v3 one.
	h := sha256.New()
	canon := net.Canonical()
	fmt.Fprintf(h, "elmocomp/request-key/v3\nnetwork %d\n%s", len(canon), canon)
	fmt.Fprintf(h, "\nalg=0 qsub=0 partition=\"\" maxmodes=0 keepdup=false\n")
	if want := hex.EncodeToString(h.Sum(nil)); base != want {
		t.Fatalf("default-config key %s is not the v3 derivation %s", base, want)
	}
	// Execution-shape knobs must not fork the key.
	same := []Config{
		{Workers: 8},
		{Algorithm: Parallel, Nodes: 4},
		{Algorithm: DivideAndConquer, Qsub: 3, GroupConcurrency: 2},
		{OverTCP: true, CommTimeout: 1e9},
	}
	for i, cfg := range same {
		if got := RequestKey(net, cfg); got != base {
			t.Errorf("config %d forked the key: %s vs %s", i, got, base)
		}
	}
	// Result-shaping options must fork it.
	diff := []Config{
		{Backend: OnDemandBackend, MaxModes: 3},
		{KeepDuplicateReactions: true},
		{MaxIntermediateModes: 10, Algorithm: Parallel},
		{MaxIntermediateModes: 10},
	}
	seen := map[string]int{base: -1}
	for i, cfg := range diff {
		got := RequestKey(net, cfg)
		if j, dup := seen[got]; dup {
			t.Errorf("configs %d and %d share a key", i, j)
		}
		seen[got] = i
	}
	// Under a budget, the driver shapes the result: algorithm re-enters
	// the key.
	a := RequestKey(net, Config{MaxIntermediateModes: 10})
	b := RequestKey(net, Config{MaxIntermediateModes: 10, Algorithm: DivideAndConquer})
	if a == b {
		t.Error("budgeted serial and dnc requests share a key")
	}
	// Default qsub normalization: explicit 2 == unset, under a budget.
	c := RequestKey(net, Config{MaxIntermediateModes: 10, Algorithm: DivideAndConquer, Qsub: 2})
	if b != c {
		t.Error("default Qsub not normalized")
	}
}

// TestRequestKeyClassifiesEveryConfigField closes "a forgotten field is
// silent cache poisoning": every field of Config is claimed by exactly
// one of the two tables below and the claim is checked. A field added to
// Config without a row here fails the test, so its author has to decide
// whether RequestKey must hash it.
func TestRequestKeyClassifiesEveryConfigField(t *testing.T) {
	net, err := Builtin("toy")
	if err != nil {
		t.Fatal(err)
	}
	budgetedDnC := Config{Algorithm: DivideAndConquer, MaxIntermediateModes: 10}
	// Result-shaping: setting the field on top of under (the documented
	// condition it shapes the result under) changes the key.
	shaping := map[string]struct {
		under Config
		set   func(*Config)
	}{
		"Backend":                {Config{MaxModes: 3}, func(c *Config) { c.Backend = OnDemandBackend }},
		"Algorithm":              {Config{MaxIntermediateModes: 10}, func(c *Config) { c.Algorithm = Parallel }},
		"Qsub":                   {budgetedDnC, func(c *Config) { c.Qsub = 3 }},
		"Partition":              {budgetedDnC, func(c *Config) { c.Partition = []string{"R1"} }},
		"KeepDuplicateReactions": {Config{}, func(c *Config) { c.KeepDuplicateReactions = true }},
		"MaxIntermediateModes":   {Config{}, func(c *Config) { c.MaxIntermediateModes = 10 }},
		"MaxModes":               {Config{Backend: OnDemandBackend}, func(c *Config) { c.MaxModes = 3 }},
		"Objective":              {Config{Backend: OnDemandBackend, MaxModes: 3}, func(c *Config) { c.Objective = map[string]string{"R1": "1"} }},
	}
	// Result-neutral: setting the field never changes the key, whatever
	// else the request says.
	neutral := map[string]func(*Config){
		"Nodes":            func(c *Config) { c.Nodes = 4 },
		"Workers":          func(c *Config) { c.Workers = 8 },
		"GroupConcurrency": func(c *Config) { c.GroupConcurrency = 2 },
		"OnMode":           func(c *Config) { c.OnMode = func(ModeEvent) {} },
		"MemBudgetBytes":   func(c *Config) { c.MemBudgetBytes = 1 << 20 },
		"SpillDir":         func(c *Config) { c.SpillDir = "/elsewhere" },
		"OverTCP":          func(c *Config) { c.OverTCP = true },
		"CommTimeout":      func(c *Config) { c.CommTimeout = time.Second },
		"Progress":         func(c *Config) { c.Progress = func(string) {} },
	}
	typ := reflect.TypeOf(Config{})
	if typ.NumField() != len(shaping)+len(neutral) {
		t.Errorf("Config has %d fields, the tables classify %d", typ.NumField(), len(shaping)+len(neutral))
	}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		row, shapes := shaping[name]
		set, isNeutral := neutral[name]
		switch {
		case shapes == isNeutral:
			t.Errorf("Config.%s must be classified as result-shaping or result-neutral, exactly once", name)
		case shapes:
			with := row.under
			row.set(&with)
			if RequestKey(net, with) == RequestKey(net, row.under) {
				t.Errorf("Config.%s is listed as result-shaping but did not change the key", name)
			}
		default:
			for other, row := range shaping {
				shaped := row.under
				row.set(&shaped)
				for _, under := range []Config{row.under, shaped} {
					with := under
					set(&with)
					if RequestKey(net, with) != RequestKey(net, under) {
						t.Errorf("Config.%s is listed as result-neutral but forked the key (on top of the %s row)", name, other)
					}
				}
			}
		}
	}
}

func TestRequestKeyCanonicalNetwork(t *testing.T) {
	// Same network, differently formatted source text.
	a, err := ParseNetworkString("name n\nR1 : A + B => C\nR2 : C => Aext\nR3 : Aext => A + B\n")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseNetworkString("name n\n# comment\nR1 :  A  +  B  =>  C\nR2 : C => Aext\nR3 : Aext => A + B\n")
	if err != nil {
		t.Fatal(err)
	}
	if a.Canonical() != b.Canonical() {
		t.Fatalf("canonical forms differ:\n%q\n%q", a.Canonical(), b.Canonical())
	}
	if RequestKey(a, Config{}) != RequestKey(b, Config{}) {
		t.Error("equal networks produced different keys")
	}
	if got, err := ParseNetworkString(a.Canonical()); err != nil || got.Canonical() != a.Canonical() {
		t.Errorf("canonical form does not round-trip: %v", err)
	}
}

func TestEncodeSupportsRoundTrip(t *testing.T) {
	net, err := Builtin("toy")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{{}, {Algorithm: DivideAndConquer, Nodes: 2}} {
		res, err := ComputeEFMs(net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		payload := res.EncodeSupports()
		back, err := ResultFromEncodedSupports(net, cfg, payload)
		if err != nil {
			t.Fatal(err)
		}
		if back.Len() != res.Len() {
			t.Fatalf("mode count %d, want %d", back.Len(), res.Len())
		}
		if back.Fingerprint() != res.Fingerprint() {
			t.Fatalf("fingerprint %x, want %x", back.Fingerprint(), res.Fingerprint())
		}
		// The reconstructed result must serve the full accessor surface.
		if err := back.Verify(); err != nil {
			t.Fatalf("reconstructed result fails verification: %v", err)
		}
		for i := 0; i < back.Len(); i++ {
			if len(back.SupportNames(i)) == 0 {
				t.Fatalf("mode %d has no support names", i)
			}
		}
	}
}

// TestVerifyRejectsWrongSupportBits: a cached payload whose mode claims
// support S ∪ {j}, where N[:, S∪{j}] still has nullity 1, holds the same
// flux as S (the kernel vector is zero at j) but not its true support.
// Flux and Verify must reject it.
func TestVerifyRejectsWrongSupportBits(t *testing.T) {
	net, err := Builtin("toy")
	if err != nil {
		t.Fatal(err)
	}
	res, err := ComputeEFMs(net, Config{})
	if err != nil {
		t.Fatal(err)
	}
	q := res.red.N.Cols()
	supports, err := core.DecodeSupportList(res.EncodeSupports(), q)
	if err != nil {
		t.Fatal(err)
	}
	mode, col := -1, -1
	for i := 0; i < len(supports) && mode < 0; i++ {
		for j := 0; j < q; j++ {
			if supports[i].Test(j) {
				continue
			}
			wide := supports[i].Clone()
			wide.Set(j)
			if k, _ := res.red.N.SelectColumns(wide.Indices(nil)).Kernel(); k.Cols() == 1 {
				mode, col, supports[i] = i, j, wide
				break
			}
		}
	}
	if mode < 0 {
		t.Fatal("no toy mode widens to a support of nullity 1")
	}
	bad, err := ResultFromEncodedSupports(net, Config{}, core.EncodeSupportList(supports, q))
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("kernel vector vanishes at support column %d", col)
	if _, err := bad.Flux(mode); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Flux of mode %d widened by column %d: got %v, want %q", mode, col, err, want)
	}
	if err := bad.Verify(); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Verify with mode %d widened by column %d: got %v, want %q", mode, col, err, want)
	}
}

// verifyAt decodes supports over res's reduction, the way a cached
// payload is re-verified, and runs Verify at GOMAXPROCS 1 and 2. The
// two errors must be the same; verifyAt returns it.
func verifyAt(t *testing.T, res *Result, supports []bitset.Set) error {
	t.Helper()
	bad, err := res.WithEncodedSupports(core.EncodeSupportList(supports, res.red.N.Cols()))
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	one := bad.Verify()
	runtime.GOMAXPROCS(2)
	if two := bad.Verify(); fmt.Sprint(one) != fmt.Sprint(two) {
		t.Fatalf("Verify at GOMAXPROCS 1: %v; at 2: %v", one, two)
	}
	return one
}

// toySupports returns the toy network's result and its supports as a
// cached payload decodes them.
func toySupports(t *testing.T) (*Result, []bitset.Set) {
	t.Helper()
	net, err := Builtin("toy")
	if err != nil {
		t.Fatal(err)
	}
	res, err := ComputeEFMs(net, Config{})
	if err != nil {
		t.Fatal(err)
	}
	supports, err := core.DecodeSupportList(res.EncodeSupports(), res.red.N.Cols())
	if err != nil {
		t.Fatal(err)
	}
	return res, supports
}

// TestVerifyRejectsDuplicateSupport: a repeated support passes every
// per-mode check; the Distinct pass rejects it.
func TestVerifyRejectsDuplicateSupport(t *testing.T) {
	res, supports := toySupports(t)
	supports[5] = supports[2].Clone()
	want := "mode 5 repeats an earlier mode's support"
	if err := verifyAt(t, res, supports); err == nil || err.Error() != want {
		t.Errorf("Verify with mode 5 a copy of mode 2: got %v, want %q", err, want)
	}
}

// TestVerifyRejectsContainedSupport: a mode widened by a second mode's
// columns, S_i ∪ S_j, contains S_j, and Verify has no subset scan. The
// nullity check rejects it: the two modes' flux vectors are independent
// kernel vectors of N[:, S_i ∪ S_j].
func TestVerifyRejectsContainedSupport(t *testing.T) {
	res, supports := toySupports(t)
	last := len(supports) - 1
	bitset.OrInto(supports[last], supports[last], supports[0])
	err := verifyAt(t, res, supports)
	if err == nil || !strings.HasPrefix(err.Error(), fmt.Sprintf("elmocomp: mode %d: ", last)) ||
		!strings.Contains(err.Error(), "nullity") {
		t.Errorf("Verify with mode %d widened by mode 0: got %v, want a nullity error on mode %d", last, err, last)
	}
}

// TestVerifyReportsLowestBadMode: Verify names the lowest-index
// violation whichever goroutine finds a violation first. Mode 0 is the
// union of every mode, whose exact kernel is the widest; every mode
// after it is a single column, which fails at once, so at GOMAXPROCS 2
// a later violation is found before mode 0's.
func TestVerifyReportsLowestBadMode(t *testing.T) {
	res, err := ComputeEFMs(yeastSubNetwork(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	supports, err := core.DecodeSupportList(res.EncodeSupports(), res.red.N.Cols())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(supports); i++ {
		bitset.OrInto(supports[0], supports[0], supports[i])
		supports[i] = bitset.FromIndices(res.red.N.Cols(), supports[i].Indices(nil)[0])
	}
	want := "elmocomp: mode 0: support submatrix has nullity"
	for rep := 0; rep < 5; rep++ {
		if err := verifyAt(t, res, supports); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("Verify: got %v, want %q…", err, want)
		}
	}
}

func TestResultFromEncodedSupportsRejectsMismatch(t *testing.T) {
	toy, _ := Builtin("toy")
	yeast, _ := Builtin("yeast1")
	res, err := ComputeEFMs(toy, Config{})
	if err != nil {
		t.Fatal(err)
	}
	payload := res.EncodeSupports()
	if _, err := ResultFromEncodedSupports(yeast, Config{}, payload); err == nil {
		t.Error("payload for a different network accepted")
	}
	if _, err := ResultFromEncodedSupports(toy, Config{}, payload[:len(payload)-1]); err == nil {
		t.Error("truncated payload accepted")
	}
	// The shell decode a cache hit runs refuses the same payloads.
	sub, err := ComputeEFMs(yeastSubNetwork(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Shell().WithEncodedSupports(payload); err == nil {
		t.Error("payload for a different network accepted over a shell")
	}
	if _, err := res.Shell().WithEncodedSupports(payload[:len(payload)-1]); err == nil {
		t.Error("truncated payload accepted over a shell")
	}
}

// TestShellDecodeMatchesFreshReduction: decoding a payload over the
// producing run's Shell serves the same Result as
// ResultFromEncodedSupports, which reduces the network again: the same
// modes, names, exact fluxes and reduction. The keep-duplicates case is
// the yeast sub-model, whose R23/R77 pair only merges by default.
func TestShellDecodeMatchesFreshReduction(t *testing.T) {
	toy, err := Builtin("toy")
	if err != nil {
		t.Fatal(err)
	}
	sub := yeastSubNetwork(t)
	for _, tc := range []struct {
		name string
		net  *Network
		cfg  Config
	}{
		{"toy", toy, Config{}},
		{"yeast1-ko3", yeastKnockout(t, "R32r", "R36r", "R19r"), Config{Workers: 2}},
		{"yeast1-sub keep duplicates", sub, Config{KeepDuplicateReactions: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := ComputeEFMs(tc.net, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			payload := res.EncodeSupports()
			shell, err := res.Shell().WithEncodedSupports(payload)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := ResultFromEncodedSupports(tc.net, tc.cfg, payload)
			if err != nil {
				t.Fatal(err)
			}
			if shell.Len() != fresh.Len() || shell.Len() != res.Len() || shell.Fingerprint() != fresh.Fingerprint() {
				t.Fatalf("shell %d modes fp %016x, fresh %d modes fp %016x, run %d modes",
					shell.Len(), shell.Fingerprint(), fresh.Len(), fresh.Fingerprint(), res.Len())
			}
			if shell.ReductionSummary() != fresh.ReductionSummary() {
				t.Fatalf("reduction %q, fresh %q", shell.ReductionSummary(), fresh.ReductionSummary())
			}
			for i := 0; i < shell.Len(); i++ {
				if got, want := shell.SupportNames(i), fresh.SupportNames(i); !reflect.DeepEqual(got, want) {
					t.Fatalf("mode %d names %v, fresh %v", i, got, want)
				}
			}
			step := shell.Len()/12 + 1
			for i := 0; i < shell.Len(); i += step {
				got, err := shell.Flux(i)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.Flux(i)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("mode %d flux over %d reactions, fresh %d", i, len(got), len(want))
				}
				for name, v := range want {
					if g, ok := got[name]; !ok || g.Cmp(v) != 0 {
						t.Fatalf("mode %d flux %s = %v, fresh %v", i, name, g, v)
					}
				}
			}
		})
	}
	merged, err := ComputeEFMs(sub, Config{})
	if err != nil {
		t.Fatal(err)
	}
	keep, err := ComputeEFMs(sub, Config{KeepDuplicateReactions: true})
	if err != nil {
		t.Fatal(err)
	}
	if merged.ReductionSummary() == keep.ReductionSummary() {
		t.Fatalf("keeping duplicates did not change the sub-model's reduction %q", keep.ReductionSummary())
	}
}

func TestComputeEFMsCancel(t *testing.T) {
	net, err := Builtin("yeast1")
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	close(closed)
	for name, cfg := range map[string]Config{
		"serial":    {},
		"parallel":  {Algorithm: Parallel, Nodes: 2},
		"dnc":       {Algorithm: DivideAndConquer, Nodes: 2},
		"dnc-sched": {Algorithm: DivideAndConquer, GroupConcurrency: 2},
	} {
		_, err := ComputeEFMsCancel(net, cfg, closed)
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("%s: got %v, want ErrCanceled", name, err)
		}
	}
	// Nil cancel must still compute.
	toy, _ := Builtin("toy")
	if _, err := ComputeEFMsCancel(toy, Config{}, nil); err != nil {
		t.Errorf("nil cancel: %v", err)
	}
}

func TestComputeEFMsContext(t *testing.T) {
	net, _ := Builtin("toy")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ComputeEFMsContext(ctx, net, Config{}); !errors.Is(err, ErrCanceled) {
		t.Errorf("canceled context: got %v, want ErrCanceled", err)
	}
	res, err := ComputeEFMsContext(context.Background(), net, Config{})
	if err != nil || res.Len() == 0 {
		t.Errorf("background context: res=%v err=%v", res, err)
	}
}
