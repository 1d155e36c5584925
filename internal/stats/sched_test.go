package stats

import (
	"strings"
	"sync"
	"testing"
)

func TestSchedRecorderCounters(t *testing.T) {
	r := NewSchedRecorder()
	r.Enqueue(1)
	r.Enqueue(2)
	r.Steal(2)
	r.BeginClass()
	r.Resplit()
	r.Enqueue(3)
	r.Enqueue(4)
	r.EndClass(SchedClass{Label: "01", Seconds: 0.25, Pairs: 10, EFMs: 3})
	r.UnresolvedClass()
	s := r.Snapshot()
	if s.Enqueued != 4 || s.Steals != 1 || s.Resplits != 1 || s.Unresolved != 1 {
		t.Fatalf("counters %+v", s)
	}
	if s.MaxQueueDepth != 4 {
		t.Fatalf("MaxQueueDepth %d, want 4", s.MaxQueueDepth)
	}
	if s.MaxActive != 1 {
		t.Fatalf("MaxActive %d, want 1", s.MaxActive)
	}
	if len(s.Classes) != 1 || s.Classes[0].Label != "01" {
		t.Fatalf("classes %+v", s.Classes)
	}
	// The snapshot is a copy: further recording must not mutate it.
	r.EndClass(SchedClass{Label: "10"})
	if len(s.Classes) != 1 {
		t.Fatal("snapshot aliases the recorder's class list")
	}
}

func TestSchedRecorderConcurrent(t *testing.T) {
	r := NewSchedRecorder()
	var wg sync.WaitGroup
	const groups = 8
	for g := 0; g < groups; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Enqueue(i)
				r.Steal(i)
				r.BeginClass()
				r.EndClass(SchedClass{Label: "x"})
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Enqueued != groups*100 || s.Steals != groups*100 || len(s.Classes) != groups*100 {
		t.Fatalf("lost updates: %s", s)
	}
	if s.MaxActive < 1 || s.MaxActive > groups {
		t.Fatalf("MaxActive %d out of [1,%d]", s.MaxActive, groups)
	}
}

func TestSchedStatsTable(t *testing.T) {
	s := &SchedStats{Enqueued: 4, Steals: 4, Resplits: 1, MaxQueueDepth: 3, MaxActive: 2,
		Classes: []SchedClass{{Label: "00", Seconds: 0.5, Pairs: 42, EFMs: 7}}}
	var b strings.Builder
	if err := s.Table().Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"00", "42", "re-splits", "peak active groups 2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}
