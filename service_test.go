package elmocomp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
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
