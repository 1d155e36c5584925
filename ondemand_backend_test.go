package elmocomp

import (
	"errors"
	"math/big"
	"reflect"
	"testing"
	"time"
)

// TestBackendOnDemandToyEndToEnd drives the on-demand backend through
// the public API on the toy network: run to exhaustion, the stream must
// be the double-description result bit for bit, delivered incrementally
// through OnMode in rank order.
func TestBackendOnDemandToyEndToEnd(t *testing.T) {
	net, err := Builtin("toy")
	if err != nil {
		t.Fatal(err)
	}
	dd, err := ComputeEFMs(net, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var events []ModeEvent
	od, err := ComputeEFMs(net, Config{
		Backend: OnDemandBackend,
		OnMode:  func(e ModeEvent) { events = append(events, e) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if od.Len() != dd.Len() || od.Fingerprint() != dd.Fingerprint() {
		t.Fatalf("ondemand %d modes fp %016x, double description %d modes fp %016x",
			od.Len(), od.Fingerprint(), dd.Len(), dd.Fingerprint())
	}
	if err := od.Verify(); err != nil {
		t.Fatalf("on-demand modes fail exact verification: %v", err)
	}
	if len(events) != od.Len() {
		t.Fatalf("OnMode delivered %d events for %d modes", len(events), od.Len())
	}
	for i, e := range events {
		if e.Rank != i+1 || len(e.Support) == 0 || e.Value == "" {
			t.Fatalf("event %d malformed: %+v", i, e)
		}
		if names := od.SupportNames(i); !reflect.DeepEqual(e.Support, names) {
			t.Fatalf("event %d streams support %v, result lists %v", i, e.Support, names)
		}
	}
	st := od.OnDemand
	if st == nil || !st.Exhausted || st.Emitted != od.Len() || st.Pivots <= 0 ||
		st.Bases <= 0 || st.FirstModeSeconds <= 0 || len(st.Values) != od.Len() {
		t.Fatalf("on-demand stats missing or implausible: %+v", st)
	}
	if od.CandidateModes != st.Bases {
		t.Fatalf("CandidateModes %d, want Bases %d", od.CandidateModes, st.Bases)
	}
	if dd.OnDemand != nil {
		t.Fatal("double-description result carries on-demand stats")
	}
}

// TestBackendOnDemandRankedPrefix: a k-limited ranked request returns
// exactly the first k entries of the exhaustive ranked stream, with
// nondecreasing exact values, and Truncate reproduces the same prefix
// from the full result.
func TestBackendOnDemandRankedPrefix(t *testing.T) {
	net, err := Builtin("toy")
	if err != nil {
		t.Fatal(err)
	}
	obj := map[string]string{}
	for i, name := range net.ReactionNames() {
		if i%2 == 0 {
			obj[name] = "1/2"
		} else {
			obj[name] = "2"
		}
	}
	full, err := ComputeEFMs(net, Config{Backend: OnDemandBackend, Objective: obj})
	if err != nil {
		t.Fatal(err)
	}
	if full.Len() < 4 {
		t.Fatalf("toy stream too short for a prefix test: %d modes", full.Len())
	}
	vals := full.OnDemand.Values
	for i := 1; i < len(vals); i++ {
		if ratLess(t, vals[i], vals[i-1]) {
			t.Fatalf("values not nondecreasing at rank %d: %s after %s", i+1, vals[i], vals[i-1])
		}
	}
	k := 3
	part, err := ComputeEFMs(net, Config{Backend: OnDemandBackend, Objective: obj, MaxModes: k})
	if err != nil {
		t.Fatal(err)
	}
	if part.Len() != k || part.OnDemand.Exhausted {
		t.Fatalf("k=%d run: %d modes, exhausted=%v", k, part.Len(), part.OnDemand.Exhausted)
	}
	full.Truncate(k)
	if full.Len() != k || full.Fingerprint() != part.Fingerprint() {
		t.Fatalf("Truncate(%d) fp %016x, k-limited run fp %016x", k, full.Fingerprint(), part.Fingerprint())
	}
	if full.OnDemand.Exhausted || full.OnDemand.Emitted != k || len(full.OnDemand.Values) != k {
		t.Fatalf("Truncate did not adjust stats: %+v", full.OnDemand)
	}
}

func ratLess(t *testing.T, a, b string) bool {
	t.Helper()
	ra, ok1 := new(big.Rat).SetString(a)
	rb, ok2 := new(big.Rat).SetString(b)
	if !ok1 || !ok2 {
		t.Fatalf("bad rationals %q, %q", a, b)
	}
	return ra.Cmp(rb) < 0
}

// TestBackendOnDemandRequestKey pins the key semantics: exhaustive
// on-demand shares the batch key (the set is identical, a cached batch
// result serves it), while k and the canonicalized objective enter the
// key as soon as the stream is bounded; the prefix-family key elides k
// but keeps the objective.
func TestBackendOnDemandRequestKey(t *testing.T) {
	net, err := Builtin("toy")
	if err != nil {
		t.Fatal(err)
	}
	batch := RequestKey(net, Config{})
	if got := RequestKey(net, Config{Backend: OnDemandBackend}); got != batch {
		t.Fatal("exhaustive on-demand request does not share the batch key")
	}
	k3 := RequestKey(net, Config{Backend: OnDemandBackend, MaxModes: 3})
	if k3 == batch {
		t.Fatal("MaxModes=3 did not change the request key")
	}
	if k5 := RequestKey(net, Config{Backend: OnDemandBackend, MaxModes: 5}); k5 == k3 {
		t.Fatal("different k values share a request key")
	}
	o1 := RequestKey(net, Config{Backend: OnDemandBackend, MaxModes: 3, Objective: map[string]string{"R1": "1/2"}})
	if o1 == k3 {
		t.Fatal("objective did not change the bounded request key")
	}
	o2 := RequestKey(net, Config{Backend: OnDemandBackend, MaxModes: 3, Objective: map[string]string{"R1": "2/4"}})
	if o1 != o2 {
		t.Fatal("equivalent rationals 1/2 and 2/4 hash to different keys")
	}

	p3 := OnDemandPrefixKey(net, Config{Backend: OnDemandBackend, MaxModes: 3})
	p9 := OnDemandPrefixKey(net, Config{Backend: OnDemandBackend, MaxModes: 9})
	if p3 != p9 {
		t.Fatal("prefix key depends on k")
	}
	pobj := OnDemandPrefixKey(net, Config{Backend: OnDemandBackend, MaxModes: 3, Objective: map[string]string{"R1": "1"}})
	if pobj == p3 {
		t.Fatal("prefix key ignores the objective")
	}
}

// TestBackendOnDemandRejections pins the refused option combinations:
// streaming fields on batch backends, a double-description budget on the
// streaming backend, and malformed objectives.
func TestBackendOnDemandRejections(t *testing.T) {
	net, err := Builtin("toy")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ComputeEFMs(net, Config{MaxModes: 3}); err == nil {
		t.Fatal("MaxModes accepted by the nullspace backend")
	}
	if _, err := ComputeEFMs(net, Config{Backend: ReverseSearchBackend, Objective: map[string]string{"R1": "1"}}); err == nil {
		t.Fatal("Objective accepted by the revsearch backend")
	}
	if _, err := ComputeEFMs(net, Config{OnMode: func(ModeEvent) {}}); err == nil {
		t.Fatal("OnMode accepted by the nullspace backend")
	}
	if _, err := ComputeEFMs(net, Config{Backend: OnDemandBackend, MaxIntermediateModes: 100}); err == nil {
		t.Fatal("MaxIntermediateModes accepted by the on-demand backend")
	}
	if _, err := ComputeEFMs(net, Config{Backend: OnDemandBackend, Objective: map[string]string{"NOPE": "1"}}); err == nil {
		t.Fatal("unknown objective reaction accepted")
	}
	if _, err := ComputeEFMs(net, Config{Backend: OnDemandBackend, Objective: map[string]string{"R1": "zebra"}}); err == nil {
		t.Fatal("non-rational objective weight accepted")
	}
}

// TestBackendOnDemandYeastSub is the yeast1 leg of the three-family
// invariant: on the 33-mode yeast1 sub-model the on-demand stream,
// bounded at exactly the known mode count, reproduces the
// double-description set bit for bit. (The stream stops the moment the
// 33rd mode is emitted; the sub-model's perturbed polytope is massively
// degenerate — full basis-graph exhaustion visits ~64k bases for 58s of
// exact pivoting, which the synth-grid k=∞ differential test already
// covers at CI cost.)
func TestBackendOnDemandYeastSub(t *testing.T) {
	if testing.Short() {
		t.Skip("minutes of exact pivoting in -short mode")
	}
	net := yeastSubNetwork(t)
	dd, err := ComputeEFMs(net, Config{})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	od, err := ComputeEFMs(net, Config{Backend: OnDemandBackend, MaxModes: dd.Len()})
	wall := time.Since(start).Seconds()
	if err != nil {
		t.Fatal(err)
	}
	if od.Len() != dd.Len() || od.Fingerprint() != dd.Fingerprint() {
		t.Fatalf("cross-family divergence on yeast1 sub-model: ondemand %d modes fp %016x, dd %d modes fp %016x",
			od.Len(), od.Fingerprint(), dd.Len(), dd.Fingerprint())
	}
	// The tier's reason to exist: a first result long before the full
	// set. The wall to the last mode is a lower bound on the exhaustive
	// wall, so this is the stricter form of "first mode < 10% of the
	// full enumeration".
	if first := od.OnDemand.FirstModeSeconds; first >= 0.1*wall {
		t.Fatalf("first mode after %.3fs of a %.3fs stream: want under 10%%", first, wall)
	}
	t.Logf("yeast1-sub: %d modes, first after %.3fs, %d bases, %d pivots",
		od.Len(), od.OnDemand.FirstModeSeconds, od.OnDemand.Bases, od.OnDemand.Pivots)
}

// TestBackendOnDemandCancelLatency starts an unbounded on-demand stream
// on the full yeast1 network (far beyond any test budget to exhaust),
// cancels shortly after, and requires the abort to surface in under a
// second — the LP polls its cancel channel mid-solve and the traversal
// at every pop.
func TestBackendOnDemandCancelLatency(t *testing.T) {
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
	_, err = ComputeEFMsCancel(net, Config{Backend: OnDemandBackend}, cancel)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if elapsed > time.Second {
		t.Fatalf("cancel latency %v, want < 1s", elapsed)
	}
}
