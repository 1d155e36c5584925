package parallel

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"elmocomp/internal/cluster"
	"elmocomp/internal/core"
)

// runBounded fails the test if Run does not return within d — the
// no-deadlock guarantee of the fail-fast substrate.
func runBounded(t *testing.T, opts Options, d time.Duration) (*Result, error) {
	t.Helper()
	p := toyProblem(t)
	type outcome struct {
		res *Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := Run(p, opts)
		ch <- outcome{res, err}
	}()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-time.After(d):
		t.Fatalf("Run wedged: no return within %v", d)
		return nil, nil
	}
}

func TestRunNodeFailureFailsFast(t *testing.T) {
	// The acceptance scenario: one node crashes at its second collective;
	// Run must return the injected error — not hang on the surviving
	// nodes' pending collectives — on both transports and several node
	// counts.
	for _, tr := range []struct {
		name string
		tp   Transport
	}{{"inproc", InProc}, {"tcp", TCP}} {
		for _, nodes := range []int{2, 3, 5} {
			t.Run(fmt.Sprintf("%s/nodes=%d", tr.name, nodes), func(t *testing.T) {
				_, err := runBounded(t, Options{
					Nodes:     nodes,
					Transport: tr.tp,
					Timeout:   5 * time.Second,
					Fault:     &cluster.FaultPlan{FailRank: nodes - 1, FailCollective: 2},
				}, 30*time.Second)
				if err == nil {
					t.Fatal("Run succeeded despite an injected node crash")
				}
				if !errors.Is(err, cluster.ErrInjected) {
					t.Fatalf("root cause lost: got %v, want the injected failure", err)
				}
			})
		}
	}
}

func TestRunGroupOfOneExchangesNothing(t *testing.T) {
	// A group of one has nobody to exchange candidates with: it builds
	// no communicator and enters no collective, so a plan that fails
	// rank 0's first collective has nothing to fail and no traffic is
	// counted, whichever transport the options name.
	p := toyProblem(t)
	serial, err := core.Run(p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range []Transport{InProc, TCP} {
		res, err := Run(p, Options{
			Nodes:     1,
			Transport: tp,
			Fault:     &cluster.FaultPlan{FailCollective: 1},
		})
		if err != nil {
			t.Fatalf("transport %d: a group of one entered a collective: %v", tp, err)
		}
		if res.Comm != (cluster.GroupStats{}) {
			t.Fatalf("transport %d: a group of one moved traffic: %+v", tp, res.Comm)
		}
		if got, want := res.Modes.Fingerprint(), serial.Modes.Fingerprint(); got != want {
			t.Fatalf("transport %d: fingerprint %016x, serial %016x", tp, got, want)
		}
	}
}

func TestRunDroppedMessageHitsTimeout(t *testing.T) {
	// A silently lost candidate exchange: without the group deadline the
	// receivers would wait forever; with it, Run reports a timeout. Both
	// directions of the first round are dropped so neither node can
	// advance to a later round (a one-sided drop would let the sender run
	// ahead and misframe the receiver's next payload).
	_, err := runBounded(t, Options{
		Nodes:   2,
		Timeout: 300 * time.Millisecond,
		Fault: &cluster.FaultPlan{Drop: []cluster.DropRule{
			{From: 0, To: 1, Nth: 1},
			{From: 1, To: 0, Nth: 1},
		}},
	}, 30*time.Second)
	if err == nil {
		t.Fatal("Run succeeded despite a dropped message")
	}
	if !errors.Is(err, cluster.ErrTimeout) {
		t.Fatalf("got %v, want a timeout", err)
	}
}

func TestRunCancel(t *testing.T) {
	// A pre-fired cancel aborts the run; the delay fault keeps the
	// collectives slow enough that the abort always lands first.
	cancel := make(chan struct{})
	close(cancel)
	_, err := runBounded(t, Options{
		Nodes:  3,
		Cancel: cancel,
		Fault:  &cluster.FaultPlan{Delay: 10 * time.Millisecond, DelayFrom: -1, DelayTo: -1},
	}, 30*time.Second)
	if err == nil {
		t.Fatal("Run succeeded despite cancellation")
	}
	if !errors.Is(err, cluster.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}

	// A cancel channel that never fires must not disturb a normal run.
	res, err := runBounded(t, Options{Nodes: 2, Cancel: make(chan struct{})}, 30*time.Second)
	if err != nil {
		t.Fatalf("run with idle cancel channel failed: %v", err)
	}
	if res == nil || res.Modes.Len() == 0 {
		t.Fatal("run with idle cancel channel produced no modes")
	}
}

func TestRunFaultFreePlanIsHarmless(t *testing.T) {
	// Wrapping the transport with an empty plan must not change results.
	p := toyProblem(t)
	plain, err := Run(p, Options{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := Run(p, Options{Nodes: 3, Fault: &cluster.FaultPlan{}})
	if err != nil {
		t.Fatal(err)
	}
	if canonicalKeys(plain.Result) != canonicalKeys(wrapped.Result) {
		t.Fatal("empty fault plan changed the result")
	}
}

func TestCheckReplicasCatchesForgedDivergence(t *testing.T) {
	// Same length, different content: the length-only check this replaces
	// would wave the forged replica through.
	mk := func(tail0 float64) *core.Result {
		set := core.NewModeSet(4, 2, nil)
		set.AppendMode(nil, []float64{tail0, 1}, nil, 1e-9)
		set.AppendMode(nil, []float64{5, 6}, nil, 1e-9)
		return &core.Result{Modes: set}
	}
	honest := []*core.Result{mk(3), mk(3), mk(3)}
	if err := checkReplicas(honest); err != nil {
		t.Fatalf("identical replicas rejected: %v", err)
	}
	forged := []*core.Result{mk(3), mk(4), mk(3)}
	err := checkReplicas(forged)
	if err == nil {
		t.Fatal("same-length diverged replica passed the check")
	}
	if got := err.Error(); !strings.Contains(got, "node 1") || !strings.Contains(got, "fingerprint") {
		t.Fatalf("divergence error does not name the node and fingerprint: %q", got)
	}

	// Length divergence still caught first, with the clearer message.
	short := mk(3)
	shortSet := core.NewModeSet(4, 2, nil)
	shortSet.AppendMode(nil, []float64{3, 1}, nil, 1e-9)
	short.Modes = shortSet
	if err := checkReplicas([]*core.Result{mk(3), short}); err == nil {
		t.Fatal("length-diverged replica passed the check")
	}
}
