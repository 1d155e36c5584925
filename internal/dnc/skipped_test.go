package dnc_test

import (
	"testing"
	"time"

	"elmocomp/internal/distrib"
	"elmocomp/internal/dnc"
	"elmocomp/internal/model"
	"elmocomp/internal/reduce"
)

// TestSkippedClass: a class found infeasible where it runs is the one
// Skipped path, locally and over the wire. On the toy network the
// partition {r3, r4, r5, r6r} leaves class 0 a trivial kernel: with those
// four reactions at zero, r1, r2, r7 and r8r feed metabolites nothing
// drains. A local run, a pure-remote run and a 2-worker distrib run must
// build the same tree, mark class 0 Skipped, enqueue and steal it like
// any other class, and leave it out of Progress and SchedStats.Classes.
func TestSkippedClass(t *testing.T) {
	n := model.Toy()
	red, err := reduce.Network(n, reduce.Options{MergeDuplicates: true})
	if err != nil {
		t.Fatal(err)
	}
	rev := red.Reversibilities()
	var part []int
	for _, name := range []string{"r3", "r4", "r5", "r6r"} {
		part = append(part, red.ColumnIndexByOriginal(name))
	}

	var addrs []string
	for range 2 {
		w, err := distrib.NewWorker("127.0.0.1:0", distrib.WorkerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		go w.Serve()
		defer w.Close()
		addrs = append(addrs, w.Addr())
	}
	pool := distrib.NewPool(addrs, distrib.PoolOptions{ClassTimeout: 30 * time.Second})
	defer pool.Close()
	spec := distrib.JobSpec{Key: "skipped-class", Network: n.String(), Q: red.N.Cols()}

	var want string
	for _, tc := range []struct {
		name   string
		remote dnc.RemoteExecutor
	}{
		{"local", nil},
		{"pure-remote", dnc.NewFakeExec(red.N, rev, 2)},
		{"distrib", pool.Bind(spec)},
	} {
		progressed := make(map[uint64]int) // Progress calls are serialized
		res, err := dnc.Run(red.N, rev, dnc.Options{
			Partition: part,
			Remote:    tc.remote,
			Progress:  func(sub *dnc.Subproblem) { progressed[sub.ID]++ },
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		classes := int64(len(res.Subproblems))
		for _, sub := range res.Subproblems {
			if sub.Skipped != (sub.ID == 0) {
				t.Fatalf("%s: class %d Skipped=%t, want only class 0 skipped", tc.name, sub.ID, sub.Skipped)
			}
			calls := 1
			if sub.Skipped {
				calls = 0
			}
			if progressed[sub.ID] != calls {
				t.Fatalf("%s: class %d reported %d times to Progress, want %d", tc.name, sub.ID, progressed[sub.ID], calls)
			}
		}
		st := res.Sched
		if st.Enqueued != classes || st.Steals != classes {
			t.Fatalf("%s: enqueued=%d steals=%d, want both %d", tc.name, st.Enqueued, st.Steals, classes)
		}
		if len(st.Classes) != int(classes)-1 {
			t.Fatalf("%s: %d class records, want %d", tc.name, len(st.Classes), classes-1)
		}
		for _, c := range st.Classes {
			if c.Label == "0000" {
				t.Fatalf("%s: skipped class 0 recorded in SchedStats.Classes", tc.name)
			}
		}
		if tc.remote != nil && st.RemoteClasses != classes {
			t.Fatalf("%s: %d of %d classes completed remotely", tc.name, st.RemoteClasses, classes)
		}
		if got := dnc.TreeKey(res); want == "" {
			want = got
		} else if got != want {
			t.Fatalf("%s: subproblem tree differs from the local run\n got %s\nwant %s", tc.name, got, want)
		}
	}
}
