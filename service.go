package elmocomp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/big"
	"sort"
	"strings"

	"elmocomp/internal/cluster"
	"elmocomp/internal/core"
	"elmocomp/internal/distrib"
	"elmocomp/internal/dnc"
	"elmocomp/internal/parallel"
	"elmocomp/internal/reduce"
)

// ErrCanceled matches errors from runs aborted through ComputeEFMsCancel
// or a canceled ComputeEFMsContext context, whichever driver was running.
var ErrCanceled = cluster.ErrCanceled

// ComputeEFMsCancel computes the elementary flux modes of the network,
// aborting the run as soon as cancel is closed. On cancellation the
// returned error matches ErrCanceled; the serial engine stops at the next
// iteration boundary, the distributed drivers trip their communicator
// group's abort latch and unwind every node promptly. A nil cancel
// behaves exactly like ComputeEFMs.
func ComputeEFMsCancel(n *Network, cfg Config, cancel <-chan struct{}) (*Result, error) {
	return computeEFMs(n, cfg, cancel, nil)
}

// ComputeEFMsContext is ComputeEFMsCancel driven by a context: the run
// aborts when ctx is done, with an error matching ErrCanceled.
func ComputeEFMsContext(ctx context.Context, n *Network, cfg Config) (*Result, error) {
	if ctx.Done() == nil {
		return computeEFMs(n, cfg, nil, nil)
	}
	return computeEFMs(n, cfg, ctx.Done(), nil)
}

// ComputeEFMsDistributed runs the divide-and-conquer driver with its
// class queue dispatched onto the pool's remote workers (the efmd
// coordinator role). Every worker's dispatchers take the largest queued
// class: classes are independent, so where one runs carries no meaning
// and workers cache no results. A worker lost mid-class (crash, severed
// link, or per-class deadline) has its class re-enqueued and rerun
// elsewhere — or on an emergency local group when the whole fleet is
// gone — so worker failure degrades throughput, never correctness. The
// result is fingerprint-identical to the local drivers (the differential
// harness gates on exactly this).
//
// cfg.GroupConcurrency additionally runs that many local node groups
// alongside the fleet; 0 means classes run remotely only. cfg.Algorithm
// must be DivideAndConquer — the other drivers have no class queue to
// distribute.
func ComputeEFMsDistributed(n *Network, cfg Config, cancel <-chan struct{}, pool *distrib.Pool) (*Result, error) {
	if pool == nil || pool.Size() == 0 {
		return nil, fmt.Errorf("elmocomp: distributed run needs a worker pool")
	}
	if cfg.Algorithm != DivideAndConquer {
		return nil, fmt.Errorf("elmocomp: distributed runs require Algorithm == DivideAndConquer")
	}
	return computeEFMs(n, cfg, cancel, func(q int, popts parallel.Options) dnc.RemoteExecutor {
		return pool.Bind(distrib.JobSpec{
			Key:            RequestKey(n, cfg),
			Network:        n.Canonical(),
			Q:              q,
			KeepDuplicates: cfg.KeepDuplicateReactions,
			Exec:           popts,
		})
	})
}

// Canonical renders the network in its byte-stable canonical form: the
// parser input format with sorted external directives and normalized
// equations, such that ParseNetworkString(n.Canonical()) reproduces the
// identical string (the round-trip property the parser fuzz target
// enforces). Two Network values describing the same reactions — however
// the original source text was formatted — render identically, which
// makes the canonical form the network half of a content-addressed
// request key.
func (n *Network) Canonical() string { return n.inner.String() }

// RequestKey returns the content-addressed identity of a computation:
// a hex SHA-256 over the network's canonical form and the result-shaping
// subset of the configuration. Two requests with equal keys compute the
// same canonical mode set, so a result cache and an in-flight request
// coalescer can key on it.
//
// Execution-shape options that are proven result-neutral — Workers,
// Nodes, GroupConcurrency, OverTCP, CommTimeout, MemBudgetBytes,
// SpillDir, Progress — are excluded: a 1-worker serial run and an 8-node
// cluster run of the same request share one key (the differential
// harness enforces exactly this fingerprint equality). When
// MaxIntermediateModes is 0 the algorithm choice itself is
// result-neutral too (every driver enumerates the full set) and
// Algorithm, Qsub and Partition are likewise normalized away; with a
// budget set they shape which classes go unresolved, so they are part of
// the identity.
//
// Backend is normalized away for the exhaustive families: the
// reverse-search backend rejects MaxIntermediateModes (it has no
// intermediate matrices to budget), so every revsearch run is
// exhaustive and its canonical mode set is bitwise identical to the
// double-description result — the cross-family differential harness
// makes that fingerprint equality a CI invariant. A cached
// double-description result therefore serves a revsearch request and
// vice versa. The same holds for an on-demand run with MaxModes == 0
// (exhaustion yields the identical set, whatever the objective ranked
// first), so it too shares the batch key. But an on-demand request
// with MaxModes > 0 returns only the k objective-best modes — k and
// the canonicalized objective ARE the result's identity, so they are
// hashed in. Partial results are scenario-dependent by design; that is
// the one place Backend leaks into the key.
func RequestKey(n *Network, cfg Config) string {
	h := sha256.New()
	io.WriteString(h, "elmocomp/request-key/v3\n")
	canon := n.Canonical()
	fmt.Fprintf(h, "network %d\n", len(canon))
	io.WriteString(h, canon)

	alg, qsub, partition := int(cfg.Algorithm), cfg.Qsub, strings.Join(cfg.Partition, ",")
	if cfg.MaxIntermediateModes == 0 {
		alg, qsub, partition = 0, 0, ""
	} else {
		if cfg.Algorithm != DivideAndConquer {
			qsub, partition = 0, ""
		} else if qsub == 0 && partition == "" {
			qsub = 2 // the documented default partition size
		}
	}
	fmt.Fprintf(h, "\nalg=%d qsub=%d partition=%q maxmodes=%d keepdup=%v\n",
		alg, qsub, partition, cfg.MaxIntermediateModes, cfg.KeepDuplicateReactions)
	if cfg.Backend == OnDemandBackend && cfg.MaxModes > 0 {
		fmt.Fprintf(h, "ondemand k=%d objective=%s\n", cfg.MaxModes, canonicalObjective(cfg.Objective))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// canonicalObjective renders an objective map byte-stably: reaction
// names sorted, weights normalized through big.Rat so "2/4" and "1/2"
// (or "0.5") hash identically. A weight that does not parse is passed
// through verbatim — the compute path rejects it with a real error, so
// the key only needs to be deterministic, not valid.
func canonicalObjective(obj map[string]string) string {
	if len(obj) == 0 {
		return ""
	}
	names := make([]string, 0, len(obj))
	for name := range obj {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, name := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		val := obj[name]
		if w, ok := new(big.Rat).SetString(val); ok {
			val = w.RatString()
		}
		fmt.Fprintf(&b, "%s=%s", name, val)
	}
	return b.String()
}

// OnDemandPrefixKey returns the identity of an on-demand request FAMILY:
// RequestKey with the stream bound k elided. Every MaxModes setting of
// one (network, config, objective) triple shares this key, and — because
// the ranked stream is a pure function of that triple — a completed run
// of k modes is byte-for-byte the prefix of any longer run. The job
// service's prefix cache exploits exactly that: a stored k=10 result
// serves any k' <= 10 request by truncation, without recomputing.
func OnDemandPrefixKey(n *Network, cfg Config) string {
	base := cfg
	base.MaxModes = 0 // exhaustive request: hashes to the shared batch key
	h := sha256.New()
	io.WriteString(h, "elmocomp/ondemand-prefix/v1\n")
	io.WriteString(h, RequestKey(n, base))
	fmt.Fprintf(h, "\nobjective=%s\n", canonicalObjective(cfg.Objective))
	return hex.EncodeToString(h.Sum(nil))
}

// EncodeSupports serializes the result's canonical support list into the
// versioned mode-set byte stream (ModeSet.Encode): one bit-only mode per
// EFM over the reduced network's columns. Together with
// ResultFromEncodedSupports it is the storage codec of the job service's
// content-addressed result cache — the payload is a pure function of the
// computed mode set, independent of which driver produced it.
func (r *Result) EncodeSupports() []byte {
	q := 0
	if r.red != nil {
		q = r.red.N.Cols()
	}
	return core.EncodeSupportList(r.supports, q)
}

// ResultFromEncodedSupports reconstructs a Result from a cached
// EncodeSupports payload: the network is reduced exactly as a fresh run
// would reduce it (KeepDuplicateReactions is honored), the payload is
// decoded and validated against the reduction's column count, and the
// supports are adopted verbatim. The returned Result serves supports,
// fluxes, participation counts and verification like a computed one; its
// run statistics (candidate counts, phases, iterations) are zero —
// nothing was run. Callers holding the original run's fingerprint should
// compare it against the reconstructed Result.Fingerprint() to detect
// cache corruption end to end.
func ResultFromEncodedSupports(n *Network, cfg Config, payload []byte) (*Result, error) {
	red, err := reduce.Network(n.inner, reduce.Options{MergeDuplicates: !cfg.KeepDuplicateReactions})
	if err != nil {
		return nil, err
	}
	supports, err := core.DecodeSupportList(payload, red.N.Cols())
	if err != nil {
		return nil, fmt.Errorf("elmocomp: cached payload: %w", err)
	}
	return &Result{network: n.inner, red: red, supports: supports}, nil
}
