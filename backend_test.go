package elmocomp

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// yeastSubNetwork returns yeast1 with the handful of high-multiplicity
// reversible reactions that drive its 760k-mode explosion removed
// (see docs/network1_fullrun.log rows 56-64). The remaining 71-reaction
// sub-model keeps the full balance structure — 60 internal metabolites,
// reduced 26x42 — and its 33 EFMs are enumerable by both backends in CI
// time, which makes it the yeast1 instance of the cross-family
// fingerprint invariant.
func yeastSubNetwork(t *testing.T) *Network {
	return yeastKnockout(t, "R32r", "R36r", "R19r", "R17r", "R18r", "R20r", "R7r")
}

// yeastKnockout returns yeast1 with the named reactions deleted from its
// canonical text — how the benchmark builds its yeast1-dd-* and
// yeast1-ko3* inputs.
func yeastKnockout(tb testing.TB, names ...string) *Network {
	tb.Helper()
	drop := make(map[string]bool, len(names))
	for _, n := range names {
		drop[n] = true
	}
	net, err := Builtin("yeast1")
	if err != nil {
		tb.Fatal(err)
	}
	var out []string
	for _, ln := range strings.Split(net.Canonical(), "\n") {
		trimmed := strings.TrimSpace(ln)
		if trimmed == "" {
			continue
		}
		if !strings.HasPrefix(trimmed, "name ") && !strings.HasPrefix(trimmed, "external ") {
			name := strings.TrimSpace(strings.SplitN(trimmed, ":", 2)[0])
			if drop[name] {
				continue
			}
		}
		out = append(out, trimmed)
	}
	sub, err := ParseNetworkString(strings.Join(out, "\n") + "\n")
	if err != nil {
		tb.Fatal(err)
	}
	return sub
}

// TestBackendRevsearchToyEndToEnd drives the reverse-search backend
// through the public API on the toy network and holds it to the
// double-description result bit for bit.
func TestBackendRevsearchToyEndToEnd(t *testing.T) {
	net, err := Builtin("toy")
	if err != nil {
		t.Fatal(err)
	}
	dd, err := ComputeEFMs(net, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ComputeEFMs(net, Config{Backend: ReverseSearchBackend})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != dd.Len() || rs.Fingerprint() != dd.Fingerprint() {
		t.Fatalf("revsearch %d modes fp %016x, double description %d modes fp %016x",
			rs.Len(), rs.Fingerprint(), dd.Len(), dd.Fingerprint())
	}
	if err := rs.Verify(); err != nil {
		t.Fatalf("revsearch modes fail exact verification: %v", err)
	}
	if rs.RevSearch == nil || rs.RevSearch.Bases <= 0 || rs.RevSearch.Pivots <= 0 {
		t.Fatalf("revsearch stats missing or empty: %+v", rs.RevSearch)
	}
	if dd.RevSearch != nil {
		t.Fatal("double-description result carries revsearch stats")
	}
}

// TestBackendCrossFamilyYeastSub is the yeast1 leg of the cross-family
// invariant: both enumeration families agree on a genuine yeast1
// sub-model (real stoichiometry, nontrivial reduction, 33 modes).
func TestBackendCrossFamilyYeastSub(t *testing.T) {
	if testing.Short() {
		t.Skip("minutes of exact pivoting in -short mode")
	}
	net := yeastSubNetwork(t)
	dd, err := ComputeEFMs(net, Config{Algorithm: DivideAndConquer, GroupConcurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ComputeEFMs(net, Config{Backend: ReverseSearchBackend})
	if err != nil {
		t.Fatal(err)
	}
	if dd.Len() == 0 {
		t.Fatal("yeast1 sub-model enumerates no modes; the instance is degenerate")
	}
	if rs.Len() != dd.Len() || rs.Fingerprint() != dd.Fingerprint() {
		t.Fatalf("cross-family divergence on yeast1 sub-model: revsearch %d modes fp %016x, dnc %d modes fp %016x",
			rs.Len(), rs.Fingerprint(), dd.Len(), dd.Fingerprint())
	}
}

// TestBackendRevsearchYeastCancelLatency starts the reverse-search
// backend on the full yeast1 network — a run that would take far longer
// than any test budget — cancels it shortly after, and requires the
// abort to surface in under a second (the walk polls the cancel channel
// at every visited dictionary).
func TestBackendRevsearchYeastCancelLatency(t *testing.T) {
	net, err := Builtin("yeast1")
	if err != nil {
		t.Fatal(err)
	}
	cancel := make(chan struct{})
	go func() {
		time.Sleep(100 * time.Millisecond)
		close(cancel)
	}()
	start := time.Now()
	_, err = ComputeEFMsCancel(net, Config{Backend: ReverseSearchBackend}, cancel)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if elapsed > time.Second {
		t.Fatalf("cancel latency %v, want < 1s", elapsed)
	}
}

// TestBackendRequestKeyNeutral pins the cache contract: the backend is
// result-neutral, so both backends share one request key and a cached
// double-description result may serve a reverse-search request.
func TestBackendRequestKeyNeutral(t *testing.T) {
	net, err := Builtin("toy")
	if err != nil {
		t.Fatal(err)
	}
	dd := RequestKey(net, Config{})
	rs := RequestKey(net, Config{Backend: ReverseSearchBackend})
	if dd != rs {
		t.Fatalf("request keys differ across backends:\n  nullspace %s\n  revsearch %s", dd, rs)
	}
	if with := RequestKey(net, Config{Backend: ReverseSearchBackend, KeepDuplicateReactions: true}); with == rs {
		t.Fatal("result-shaping option KeepDuplicateReactions did not change the key")
	}
}

// TestBackendRevsearchRejections pins the option combinations the
// reverse-search backend refuses instead of silently ignoring — an
// intermediate-mode budget (a double-description concept; accepting it
// would break the unconditional key normalization) and unknown backend
// values.
func TestBackendRevsearchRejections(t *testing.T) {
	net, err := Builtin("toy")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ComputeEFMs(net, Config{Backend: ReverseSearchBackend, MaxIntermediateModes: 100}); err == nil {
		t.Fatal("MaxIntermediateModes accepted by the revsearch backend")
	}
	if _, err := ComputeEFMs(net, Config{Backend: Backend(99)}); err == nil {
		t.Fatal("unknown backend accepted")
	}
}
