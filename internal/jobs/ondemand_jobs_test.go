package jobs

import (
	"context"
	"testing"
	"time"

	"elmocomp"
)

// submitWait submits a request against the real drivers and waits for a
// terminal state.
func submitWait(t *testing.T, m *Manager, req Request) *Job {
	t.Helper()
	j, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatalf("job %s: %v", j.ID, err)
	}
	return j
}

func modeEvents(t *testing.T, j *Job) []Event {
	t.Helper()
	evs, term := j.Events(0)
	if !term {
		t.Fatalf("job %s not terminal", j.ID)
	}
	var modes []Event
	for _, e := range evs {
		if e.Type == "mode" {
			modes = append(modes, e)
		}
	}
	return modes
}

// TestOnDemandModeEventsStream runs a real bounded on-demand job on the
// toy network and checks every streamed mode landed on the event channel
// in rank order, before the terminal state event.
func TestOnDemandModeEventsStream(t *testing.T) {
	m := New(Config{Workers: 1})
	defer shutdown(t, m)
	j := submitWait(t, m, toyRequest(t, elmocomp.Config{Backend: elmocomp.OnDemandBackend, MaxModes: 5}))
	res, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 5 {
		t.Fatalf("k=5 job returned %d modes", res.Len())
	}
	modes := modeEvents(t, j)
	if len(modes) != 5 {
		t.Fatalf("%d mode events for 5 modes", len(modes))
	}
	evs, _ := j.Events(0)
	lastSeq := evs[len(evs)-1].Seq
	for i, e := range modes {
		if e.Rank != i+1 || len(e.Support) == 0 || e.Value == "" {
			t.Fatalf("mode event %d malformed: %+v", i, e)
		}
		if e.Seq >= lastSeq {
			t.Fatalf("mode event %d arrived with/after the terminal event", i)
		}
	}
}

// TestOnDemandPrefixCacheServesShorterK is the one-cache regression for
// bounded streams. A request family (elmocomp.OnDemandPrefixKey) has one
// entry in the result cache, holding the longest stream seen so far:
// after a completed k=5 run, a k=3 submission is served by truncation —
// no driver run — and returns exactly the first 3 modes of the k=5
// stream. A k beyond the stored stream still runs (and upgrades the
// entry); an exhaustive run is stored under its batch key and completes
// the family, so any k serves from cache thereafter.
func TestOnDemandPrefixCacheServesShorterK(t *testing.T) {
	toy := toyRequest(t, elmocomp.Config{}).Network
	od := func(k int) Request {
		return Request{Network: toy, Config: elmocomp.Config{Backend: elmocomp.OnDemandBackend, MaxModes: k}}
	}
	counters := func(t *testing.T, m *Manager, runs, hits, prefix int64) {
		t.Helper()
		if got := m.Stats().Counters; got.RunsStarted != runs || got.CacheHits != hits || got.PrefixHits != prefix {
			t.Fatalf("runs_started %d, cache_hits %d, prefix_hits %d; want %d, %d, %d",
				got.RunsStarted, got.CacheHits, got.PrefixHits, runs, hits, prefix)
		}
	}

	t.Run("shorter-k", func(t *testing.T) {
		m := New(Config{Workers: 1})
		defer shutdown(t, m)
		j5 := submitWait(t, m, od(5))
		res5, _ := j5.Result()
		counters(t, m, 1, 0, 0)

		j3 := submitWait(t, m, od(3))
		res3, err := j3.Result()
		if err != nil {
			t.Fatal(err)
		}
		counters(t, m, 1, 0, 1)
		if !j3.Status().Cached {
			t.Fatal("prefix-served job not marked cached")
		}
		if res3.Len() != 3 {
			t.Fatalf("k=3 prefix serve returned %d modes", res3.Len())
		}
		for i := 0; i < 3; i++ {
			a, b := res3.ReducedSupport(i), res5.ReducedSupport(i)
			if len(a) != len(b) {
				t.Fatalf("prefix mode %d diverges from the k=5 stream", i)
			}
			for c := range a {
				if a[c] != b[c] {
					t.Fatalf("prefix mode %d diverges from the k=5 stream", i)
				}
			}
		}

		// Beyond the stored stream: must run, then upgrade the entry.
		j7 := submitWait(t, m, od(7))
		res7, _ := j7.Result()
		counters(t, m, 2, 0, 1)
		if res7.Len() != 7 {
			t.Fatalf("k=7 returned %d modes", res7.Len())
		}
		j6 := submitWait(t, m, od(6))
		counters(t, m, 2, 0, 2)
		res6, _ := j6.Result()
		if res6.Len() != 6 {
			t.Fatalf("k=6 returned %d modes", res6.Len())
		}

		// Exhaustive run (k=0, shares the batch key) completes the family:
		// any k serves from the cache afterwards.
		jAll := submitWait(t, m, od(0))
		resAll, _ := jAll.Result()
		counters(t, m, 3, 0, 2)
		jBig := submitWait(t, m, od(resAll.Len()+100))
		resBig, _ := jBig.Result()
		counters(t, m, 3, 0, 3)
		if resBig.Len() != resAll.Len() || resBig.Fingerprint() != resAll.Fingerprint() {
			t.Fatalf("completed-family serve: %d modes fp %016x, want %d fp %016x",
				resBig.Len(), resBig.Fingerprint(), resAll.Len(), resAll.Fingerprint())
		}
		// The family's one entry and the exhaustive run's batch key.
		if n := m.Stats().Cache.Entries; n != 2 {
			t.Fatalf("cache holds %d entries, want 2 (the family and the batch key)", n)
		}
	})

	// A hit counts as a cache hit when the entry was made under the
	// submission's own request key, and as a prefix hit otherwise — also
	// when an earlier run of the same k made it and a longer run has
	// since upgraded the family's entry.
	t.Run("counters", func(t *testing.T) {
		m := New(Config{Workers: 1})
		defer shutdown(t, m)
		submitWait(t, m, od(5))
		submitWait(t, m, od(5))
		counters(t, m, 1, 1, 0)
		submitWait(t, m, od(9))
		counters(t, m, 2, 1, 0)
		if res, _ := submitWait(t, m, od(5)).Result(); res.Len() != 5 {
			t.Fatalf("k=5 from the k=9 entry returned %d modes", res.Len())
		}
		counters(t, m, 2, 1, 1)
	})

	// A disabled cache disables family serving too: there is no second
	// budget to serve a shorter stream from.
	t.Run("cache-disabled", func(t *testing.T) {
		m := New(Config{Workers: 1, CacheBytes: -1})
		defer shutdown(t, m)
		submitWait(t, m, od(5))
		submitWait(t, m, od(3))
		counters(t, m, 2, 0, 0)
	})
}

// TestCacheHitsCountServedLookups: /varz cache.hits counts a lookup only
// when it served the submission, so it equals cache_hits + prefix_hits.
// A family stream shorter than k and a poisoned entry are both misses:
// the submission runs.
func TestCacheHitsCountServedLookups(t *testing.T) {
	toy := toyRequest(t, elmocomp.Config{}).Network
	od := func(k int) Request {
		return Request{Network: toy, Config: elmocomp.Config{Backend: elmocomp.OnDemandBackend, MaxModes: k}}
	}
	check := func(t *testing.T, m *Manager, runs, hits int64) {
		t.Helper()
		st := m.Stats()
		if st.Counters.RunsStarted != runs || st.Cache.Hits != hits || st.Cache.Hits != st.Counters.CacheHits+st.Counters.PrefixHits {
			t.Fatalf("runs_started %d, cache.hits %d, cache_hits %d + prefix_hits %d; want %d runs and %d hits, both ways",
				st.Counters.RunsStarted, st.Cache.Hits, st.Counters.CacheHits, st.Counters.PrefixHits, runs, hits)
		}
	}
	m := New(Config{Workers: 1})
	defer shutdown(t, m)
	submitWait(t, m, od(3))
	submitWait(t, m, od(6)) // the family's 3-mode stream cannot serve 6
	check(t, m, 2, 0)
	submitWait(t, m, od(3))
	check(t, m, 2, 1)

	// Poison the family's entry: its payload no longer has its run's
	// fingerprint, so the lookup serves nothing and the entry goes.
	req := od(3)
	ckey, _ := cacheSlot(req, elmocomp.RequestKey(req.Network, req.Config))
	bad, ok := m.cache.Get(ckey)
	if !ok {
		t.Fatal("no family entry to poison")
	}
	bad.fingerprint++
	m.cache.Put(ckey, bad)
	submitWait(t, m, od(3))
	// The peek above is the one hit that served no submission.
	if st := m.Stats(); st.Counters.RunsStarted != 3 || st.Cache.Hits != 2 || st.Counters.CacheHits+st.Counters.PrefixHits != 1 {
		t.Fatalf("after a poisoned entry: runs_started %d, cache.hits %d, cache_hits %d + prefix_hits %d; want 3, 2 (one the test's peek), 1",
			st.Counters.RunsStarted, st.Cache.Hits, st.Counters.CacheHits, st.Counters.PrefixHits)
	}
}

// TestOnDemandSubmitRejectsOwnedOnMode: OnMode is manager-owned like
// Progress.
func TestOnDemandSubmitRejectsOwnedOnMode(t *testing.T) {
	m := New(Config{Workers: 1})
	defer shutdown(t, m)
	req := toyRequest(t, elmocomp.Config{Backend: elmocomp.OnDemandBackend, MaxModes: 1,
		OnMode: func(elmocomp.ModeEvent) {}})
	if _, err := m.Submit(req); err == nil {
		t.Fatal("caller-set OnMode accepted")
	}
}
