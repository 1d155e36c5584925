package main

import (
	"bytes"
	"fmt"
	"math"
	"math/big"
	"sort"
	"sync"
	"time"

	"elmocomp"
	"elmocomp/internal/bitset"
	"elmocomp/internal/bptree"
	"elmocomp/internal/cluster"
	"elmocomp/internal/core"
	"elmocomp/internal/dnc"
	"elmocomp/internal/jobs"
	"elmocomp/internal/linalg"
	"elmocomp/internal/lp"
	"elmocomp/internal/model"
	"elmocomp/internal/nullspace"
	"elmocomp/internal/ondemand"
	"elmocomp/internal/parallel"
	"elmocomp/internal/ratmat"
	"elmocomp/internal/reduce"
	"elmocomp/internal/revsearch"
)

// The traced passes below measure strictly from outside: every span is
// opened and closed in this file around a call to an exported function.
// A pass first replays its workload stage by stage under the workload's
// root span (that part must reproduce the untraced fingerprint and its
// wall gives bench.trace_overhead_frac), then runs the single-layer
// measurements under a second root, "layers".

func (c *child) layer(name string, v float64) {
	if c.res.Layer == nil {
		c.res.Layer = make(map[string]float64)
	}
	c.res.Layer[name] = v
}

// span times f under a span of its own and returns the seconds.
func (c *child) span(name string, parent int, f func()) float64 {
	sp := c.tr.begin(name, parent)
	f()
	c.tr.end(sp)
	return c.tr.seconds(sp)
}

// sumMax folds class walls.
func sumMax(v []float64) (sum, max float64) {
	for _, x := range v {
		sum += x
		if x > max {
			max = x
		}
	}
	return sum, max
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// prepared is the front of every library pipeline: parse and reduce,
// one span each.
type prepared struct {
	red *reduce.Reduced
	rev []bool
}

func (c *child) prepare(root int, text string) (*prepared, error) {
	sp := c.tr.begin("model.parse", root)
	net, err := model.ParseString(text)
	c.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = c.tr.begin("reduce.network", root)
	red, err := reduce.Network(net, reduce.Options{MergeDuplicates: true})
	c.tr.end(sp)
	if err != nil {
		return nil, err
	}
	c.layer("reduce.rows", float64(red.N.Rows()))
	c.layer("reduce.cols", float64(red.N.Cols()))
	return &prepared{red: red, rev: red.Reversibilities()}, nil
}

// finishPass closes the pipeline root, checks the pass against the pin
// and turns span self times into the *_s layer metrics.
func (c *child) finishPass(root int, key string, supports []bitset.Set) {
	c.tr.end(root)
	c.res.TracedWallS = c.tr.seconds(root)
	c.res.Modes = int64(len(supports))
	c.res.Fingerprint = fingerprintHex(core.SupportsFingerprint(supports))
	c.check(key, len(supports), c.res.Fingerprint)
}

func (c *child) spanMetrics() {
	self := c.tr.selfSeconds()
	for span, metric := range map[string]string{
		"model.parse":    "model.parse_s",
		"reduce.network": "reduce.network_s",
		"ratmat.kernel":  "ratmat.kernel_s",
		"nullspace.new":  "nullspace.new_s",
		"core.begin_row": "core.begin_row_s",
		"core.generate":  "core.generate_s",
		"core.assemble":  "core.assemble_s",
		"core.canonical": "core.canonical_s",
	} {
		if v, ok := self[span]; ok {
			c.layer(metric, v)
		}
	}
}

// kernelLayer times one exact kernel and one nullspace preparation of
// the reduced matrix: what every double-description class and every
// small cold job pays before its first row.
func (c *child) kernelLayer(layers int, pr *prepared, alsoNew bool) error {
	c.span("ratmat.kernel", layers, func() { pr.red.N.Kernel() })
	if !alsoNew {
		return nil
	}
	var err error
	c.span("nullspace.new", layers, func() { _, err = nullspace.New(pr.red.N, pr.rev, nullspace.Heuristics{}) })
	return err
}

// iterCounters folds engine IterStats into the exact core counters.
type iterCounters struct {
	candidates, prefiltered, treeRejects, tested, accepted, duplicates, peakBytes int64
	gen, test, merge                                                              float64
}

func (k *iterCounters) add(s core.IterStats) {
	k.candidates += s.Pairs
	k.prefiltered += s.Prefiltered
	k.treeRejects += s.TreeRejects
	k.tested += s.Tested
	k.accepted += s.Accepted
	k.duplicates += s.Duplicates
	if s.PeakBytes > k.peakBytes {
		k.peakBytes = s.PeakBytes
	}
	k.gen += s.GenSeconds
	k.test += s.TestSeconds
	k.merge += s.MergeSeconds
}

func (c *child) coreCounters(k iterCounters) {
	c.layer("core.candidates", float64(k.candidates))
	c.layer("core.prefiltered", float64(k.prefiltered))
	c.layer("core.tree_rejects", float64(k.treeRejects))
	c.layer("core.rank_tests", float64(k.tested))
	c.layer("core.accepted", float64(k.accepted))
	c.layer("core.duplicates", float64(k.duplicates))
	c.layer("core.peak_mode_bytes", float64(k.peakBytes))
	c.layer("core.accept_ratio", ratio(float64(k.accepted), float64(k.tested)))
}

// supportSet packs canonical supports into the bits-only mode set the
// result cache and the wire carry.
func supportSet(q int, supports []bitset.Set) *core.ModeSet {
	set := core.NewModeSet(q, q, nil)
	set.Grow(len(supports))
	words := make([]uint64, 0, 4)
	for _, b := range supports {
		words = words[:0]
		for w := 0; w < b.Words(); w++ {
			words = append(words, b.Word(w))
		}
		set.AppendMode(words, nil, nil, 0)
	}
	return set
}

// tracedSerial replaces ComputeEFMs(Serial) by the sequence it runs.
func tracedSerial(c *child) error {
	const workers = 2
	root := c.tr.begin("yeast-serial", 0)
	pr, err := c.prepare(root, c.p.dd.Text)
	if err != nil {
		return err
	}
	sp := c.tr.begin("nullspace.new", root)
	p, err := nullspace.New(pr.red.N, pr.rev, nullspace.Heuristics{})
	c.tr.end(sp)
	if err != nil {
		return err
	}
	opts := core.Options{Workers: workers}
	pool := core.NewPool(p, workers)
	store := core.NewStoreManager(opts)
	defer store.Release()
	if err := store.Hold(core.InitialModeSet(p, linalg.DefaultTol)); err != nil {
		return err
	}
	var k iterCounters
	for row := p.D; row < p.Q(); row++ {
		set, err := store.Materialize()
		if err != nil {
			return err
		}
		sp = c.tr.begin("core.begin_row", root)
		it := core.BeginRow(p, set, row, opts)
		c.tr.end(sp)
		sp = c.tr.begin("core.generate", root)
		cands := pool.GenerateRange(it, 0, it.Pairs(), &it.Stats)
		c.tr.end(sp)
		sp = c.tr.begin("core.assemble", root)
		next, err := pool.AssembleNext(it, cands)
		c.tr.end(sp)
		if err != nil {
			return err
		}
		k.add(it.Stats)
		if err := store.Hold(next); err != nil {
			return err
		}
	}
	final, err := store.Materialize()
	if err != nil {
		return err
	}
	run := &core.Result{Problem: p, Modes: final}
	sp = c.tr.begin("core.canonical", root)
	supports := core.CanonicalSupports(run)
	c.tr.end(sp)
	c.finishPass(root, c.p.dd.Key, supports)

	layers := c.tr.begin("layers", 0)
	if err := c.kernelLayer(layers, pr, false); err != nil {
		return err
	}

	// Rank test: re-validate every final mode with one reused workspace.
	ws := linalg.NewWorkspace(p.M()+2, p.M()+2)
	scratch := make([]int, 0, p.Q())
	rejected := 0
	seconds := c.span("linalg.rank_test", layers, func() {
		for i := 0; i < final.Len(); i++ {
			if !core.IsElementaryWS(p, final, i, 0, ws, scratch) {
				rejected++
			}
		}
	})
	c.res.Attempted++
	if rejected > 0 {
		c.failf("rank test rejects %d of %d final modes", rejected, final.Len())
	}
	c.layer("linalg.rank_test_ns", ratio(seconds*1e9, float64(final.Len())))

	// Result codec, through the public entry points the job cache uses.
	set := supportSet(pr.red.N.Cols(), supports)
	payload := set.Encode()
	enet, err := elmocomp.ParseNetworkString(c.p.dd.Text)
	if err != nil {
		return err
	}
	var res *elmocomp.Result
	c.layer("core.codec_decode_s", c.span("core.codec_decode", layers, func() {
		res, err = elmocomp.ResultFromEncodedSupports(enet, elmocomp.Config{}, payload)
	}))
	if err != nil {
		return err
	}
	var again []byte
	c.layer("core.codec_encode_s", c.span("core.codec_encode", layers, func() { again = res.EncodeSupports() }))
	c.layer("core.codec_bytes_per_mode", ratio(float64(len(payload)), float64(len(supports))))
	c.res.Attempted++
	if !bytes.Equal(payload, again) || fingerprintHex(res.Fingerprint()) != c.res.Fingerprint {
		c.failf("result codec round trip changed the mode set")
	}

	// Store codec on the same set.
	var enc []byte
	c.layer("core.store_encode_s", c.span("core.store_encode", layers, func() { enc = core.EncodeCompressed(set) }))
	var dec *core.ModeSet
	c.layer("core.store_decode_s", c.span("core.store_decode", layers, func() { dec, err = core.DecodeCompressed(enc) }))
	if err != nil {
		return err
	}
	c.layer("core.store_ratio", ratio(float64(len(payload)), float64(len(enc))))
	c.res.Attempted++
	if dec.Fingerprint() != set.Fingerprint() {
		c.failf("store codec round trip changed the mode set")
	}
	c.tr.end(layers)

	c.spanMetrics()
	c.coreCounters(k)
	generate := c.res.Layer["core.generate_s"]
	outside := generate + c.res.Layer["core.assemble_s"]
	c.layer("core.candidates_per_s", ratio(float64(k.candidates), generate))
	c.layer("core.sampled_gen_s", k.gen)
	c.layer("core.sampled_test_s", k.test)
	// The engine's generate and test seconds are CPU sums over the
	// workers; per worker they should add up to the outside wall.
	engine := (k.gen+k.test)/workers + k.merge
	c.layer("core.timer_residual_frac", ratio(math.Abs(engine-outside), outside))
	return nil
}

// walk visits a divide-and-conquer subproblem tree.
func walk(subs []*dnc.Subproblem, visit func(*dnc.Subproblem)) {
	for _, s := range subs {
		visit(s)
		walk(s.Children, visit)
	}
}

// tracedCombined drives dnc.Run over two TCP nodes as ComputeEFMs does
// and reconstructs one span per class from the Progress callback.
func tracedCombined(c *child) error {
	root := c.tr.begin("yeast-combined", 0)
	pr, err := c.prepare(root, c.p.dd.Text)
	if err != nil {
		return err
	}
	var classWalls []float64
	sp := c.tr.begin("dnc.run", root)
	last := time.Now()
	run, err := dnc.Run(pr.red.N, pr.rev, dnc.Options{
		Parallel: parallel.Options{Core: core.Options{Workers: 1}, Nodes: 2, Transport: parallel.TCP},
		Qsub:     c.p.qsubCombined,
		Progress: func(*dnc.Subproblem) {
			now := time.Now()
			c.tr.mark("dnc.class", sp, last, now)
			classWalls = append(classWalls, now.Sub(last).Seconds())
			last = now
		},
	})
	c.tr.end(sp)
	if err != nil {
		return err
	}
	c.finishPass(root, c.p.dd.Key, run.Supports)

	var phases parallel.PhaseTimes
	var largest *dnc.Subproblem
	walk(run.Subproblems, func(s *dnc.Subproblem) {
		phases.GenCand += s.Phases.GenCand
		phases.RankTest += s.Phases.RankTest
		phases.Communicate += s.Phases.Communicate
		phases.Merge += s.Phases.Merge
		if largest == nil || len(s.Supports) > len(largest.Supports) {
			largest = s
		}
	})
	c.layer("core.sampled_gen_s", phases.GenCand)
	c.layer("core.sampled_test_s", phases.RankTest)
	c.layer("parallel.comm_s", phases.Communicate)
	c.layer("parallel.merge_s", phases.Merge)
	c.layer("dnc.classes", float64(len(classWalls)))
	c.layer("dnc.candidates", float64(run.TotalPairs()))
	c.layer("dnc.peak_node_bytes", float64(run.PeakNodeBytes()))
	if serial, ok := c.exp.Counters["yeast-serial/"+c.p.dd.Key]; ok {
		c.layer("dnc.candidate_ratio", ratio(float64(run.TotalPairs()), serial["core.candidates"]))
	}
	sum, max := sumMax(classWalls)
	c.layer("dnc.class_wall_sum_s", sum)
	c.layer("dnc.class_wall_max_s", max)

	layers := c.tr.begin("layers", 0)
	if err := c.kernelLayer(layers, pr, true); err != nil {
		return err
	}

	// Engine counters of the pointed path. dnc reports them for rank 0
	// alone, so the same classes run once more on one node, where rank 0
	// is the whole class; the totals do not depend on how the pair
	// space is sliced.
	var k iterCounters
	sp = c.tr.begin("dnc.counters", layers)
	counted, err := dnc.Run(pr.red.N, pr.rev, dnc.Options{
		Parallel: parallel.Options{Core: core.Options{
			Workers: 2,
			Trace:   func(s core.IterStats, _ *core.ModeSet) { k.add(s) },
		}, Nodes: 1},
		Qsub: c.p.qsubCombined,
	})
	c.tr.end(sp)
	if err != nil {
		return err
	}
	c.res.Attempted++
	if k.candidates != run.TotalPairs() || core.SupportsFingerprint(counted.Supports) != core.SupportsFingerprint(run.Supports) {
		c.failf("one-node counter pass disagrees: %d candidates vs %d", k.candidates, run.TotalPairs())
	}
	c.coreCounters(k)

	// Bit-pattern tree over the largest class: build, then one subset
	// query per support.
	q := pr.red.N.Cols()
	patterns := supportSet(q, largest.Supports)
	var tree *bptree.Tree
	c.layer("bptree.build_s", c.span("bptree.build", layers, func() {
		b := bptree.NewBuilder(q)
		for i := 0; i < patterns.Len(); i++ {
			b.Add(patterns.BitsWords(i))
		}
		tree = b.Build()
	}))
	missed := 0
	seconds := c.span("bptree.query", layers, func() {
		for i := 0; i < patterns.Len(); i++ {
			if !tree.HasSubsetOf(patterns.BitsWords(i)) {
				missed++
			}
		}
	})
	c.layer("bptree.query_ns", ratio(seconds*1e9, float64(patterns.Len())))
	c.res.Attempted++
	if missed > 0 {
		c.failf("bptree misses %d of its own patterns", missed)
	}

	if err := c.allgatherLayer(layers, patterns.Encode()); err != nil {
		return err
	}
	c.tr.end(layers)
	c.spanMetrics()
	return nil
}

// allgatherLayer moves a payload the size of the largest class's encoded
// set through a two-rank TCP group, 20 rounds. The group's counters are
// exact for a given payload, so framing overhead is pinned with them.
func (c *child) allgatherLayer(layers int, payload []byte) error {
	const rounds = 20
	comms, err := cluster.NewTCPGroup(2)
	if err != nil {
		return err
	}
	defer func() {
		for _, cm := range comms {
			cm.Close()
		}
	}()
	// Allgather hands the slice to the receivers, so each round sends a
	// copy made before the clock starts.
	copies := make([][][]byte, len(comms))
	for r := range copies {
		for i := 0; i < rounds; i++ {
			copies[r] = append(copies[r], append([]byte(nil), payload...))
		}
	}
	errs := make([]error, len(comms))
	sp := c.tr.begin("cluster.allgather", layers)
	var wg sync.WaitGroup
	for r, cm := range comms {
		wg.Add(1)
		go func(r int, cm cluster.Comm) {
			defer wg.Done()
			for i := 0; i < rounds && errs[r] == nil; i++ {
				_, errs[r] = cm.Allgather(copies[r][i])
			}
		}(r, cm)
	}
	wg.Wait()
	c.tr.end(sp)
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("allgather: %w", err)
		}
	}
	st := cluster.StatsOf(comms)
	c.layer("cluster.bytes", float64(st.Bytes))
	c.layer("cluster.wire_bytes", float64(st.WireBytes))
	c.layer("cluster.messages", float64(st.Messages))
	c.layer("cluster.allgather_mb_per_s", ratio(float64(st.Bytes)/1e6, c.tr.seconds(sp)))
	return nil
}

func tracedRevsearch(c *child) error {
	root := c.tr.begin("revsearch-yeast-sub", 0)
	pr, err := c.prepare(root, c.p.exact.Text)
	if err != nil {
		return err
	}
	sp := c.tr.begin("revsearch.run", root)
	run, err := revsearch.Run(pr.red.N, pr.rev, revsearch.Options{Workers: 2})
	c.tr.end(sp)
	if err != nil {
		return err
	}
	seconds := c.tr.seconds(sp)
	sp = c.tr.begin("core.canonical", root)
	supports := core.CanonicalSupports(run.CoreResult())
	c.tr.end(sp)
	c.finishPass(root, c.p.exact.Key, supports)

	st := run.Stats
	c.layer("revsearch.bases", float64(st.Bases))
	c.layer("revsearch.pivots", float64(st.Pivots))
	c.layer("revsearch.vertices", float64(st.Vertices))
	c.layer("revsearch.max_depth", float64(st.MaxDepth))
	c.layer("revsearch.bases_per_s", ratio(float64(st.Bases), seconds))
	c.layer("revsearch.pivots_per_s", ratio(float64(st.Pivots), seconds))
	c.layer("revsearch.bases_per_mode", ratio(float64(st.Bases), float64(len(supports))))

	layers := c.tr.begin("layers", 0)
	if err := c.kernelLayer(layers, pr, true); err != nil {
		return err
	}
	c.tr.end(layers)
	c.spanMetrics()
	return nil
}

// objectiveWeights maps reaction-name weights onto reduced columns, as
// the library does for Config.Objective.
func objectiveWeights(red *reduce.Reduced, obj map[string]string) ([]*big.Rat, error) {
	if len(obj) == 0 {
		return nil, nil
	}
	w := make([]*big.Rat, red.N.Cols())
	for name, val := range obj {
		col := red.ColumnIndexByOriginal(name)
		r, ok := new(big.Rat).SetString(val)
		if col < 0 || !ok {
			return nil, fmt.Errorf("objective %s=%s does not map onto the reduced network", name, val)
		}
		if w[col] == nil {
			w[col] = r
		} else {
			w[col].Add(w[col], r)
		}
	}
	return w, nil
}

func tracedOndemand(c *child) error {
	root := c.tr.begin("ondemand-yeast-sub", 0)
	pr, err := c.prepare(root, c.p.exact.Text)
	if err != nil {
		return err
	}
	weights, err := objectiveWeights(pr.red, c.p.objective)
	if err != nil {
		return err
	}
	var supports []bitset.Set
	sp := c.tr.begin("ondemand.generate", root)
	last := time.Now()
	st, err := ondemand.Generate(pr.red.N, pr.rev, ondemand.Options{Objective: weights, MaxModes: c.p.k}, func(m ondemand.Mode) {
		now := time.Now()
		c.tr.mark("ondemand.mode", sp, last, now) // the work that produced this mode
		last = now
		supports = append(supports, m.Support)
	})
	c.tr.end(sp)
	if err != nil {
		return err
	}
	seconds := c.tr.seconds(sp)
	sort.Slice(supports, func(a, b int) bool { return supports[a].Compare(supports[b]) < 0 })
	key := request{Net: c.p.exact, Backend: "ondemand", K: c.p.k, Objective: c.p.objective}.ExpectKey()
	c.finishPass(root, key, supports)

	c.layer("lp.pivots", float64(st.Pivots))
	c.layer("lp.phase1_pivots", float64(st.Phase1Pivots))
	c.layer("lp.pivots_per_s", ratio(float64(st.Pivots), seconds))
	c.layer("ondemand.bases", float64(st.Bases))
	c.layer("ondemand.enqueued", float64(st.Enqueued))
	c.layer("ondemand.duplicates", float64(st.Duplicates))
	c.layer("ondemand.verify_rejects", float64(st.VerifyRejects))
	c.layer("ondemand.bases_per_mode", ratio(float64(st.Bases), float64(st.Emitted)))

	layers := c.tr.begin("layers", 0)
	if err := c.kernelLayer(layers, pr, true); err != nil {
		return err
	}
	if err := c.pivotLayer(layers, pr); err != nil {
		return err
	}
	c.tr.end(layers)
	c.spanMetrics()
	return nil
}

// pivotLayer solves the root LP of the on-demand generator (the split
// stoichiometry over the normalization row, zero objective) and pivots
// its optimal dictionary forward and back along the first column that
// has a lexicographic minimum-ratio row.
func (c *child) pivotLayer(layers int, pr *prepared) error {
	const rounds = 2000
	p, err := nullspace.New(pr.red.N, pr.rev, nullspace.Heuristics{SplitAllReversible: true})
	if err != nil {
		return err
	}
	q, m := p.Q(), p.M()
	A := ratmat.New(m+1, q)
	for i := 0; i < m; i++ {
		for j := 0; j < q; j++ {
			A.Set(i, j, p.NExact.At(i, j))
		}
	}
	b := make([]*big.Rat, m+1)
	for i := range b {
		b[i] = new(big.Rat)
	}
	for j := 0; j < q; j++ {
		A.SetInt(m, j, 1)
	}
	b[m].SetInt64(1)
	sol, err := lp.Solve(&lp.Problem{A: A, B: b}, lp.Options{})
	if err != nil {
		return err
	}
	if sol.Status != lp.Optimal {
		return fmt.Errorf("root LP is %v", sol.Status)
	}
	d := sol.Dict
	row, col := -1, -1
	for s := 0; s < d.NumVars() && row < 0; s++ {
		if d.RowOf(s) < 0 {
			row, col = d.LexMinRatioRow(s), s
		}
	}
	if row < 0 {
		return fmt.Errorf("root dictionary has no pivotable column")
	}
	leaving := d.BasicVar(row)
	before := d.Clone()
	seconds := c.span("lp.pivot", layers, func() {
		for i := 0; i < rounds; i++ {
			d.Pivot(row, col)
			d.Pivot(row, leaving)
		}
	})
	c.layer("lp.pivot_ns", seconds*1e9/(2*rounds))
	c.res.Attempted++
	if !d.Equal(before) {
		c.failf("pivoting forward and back changed the dictionary")
	}
	return nil
}

// medianOf applies f to every outcome that passes keep and returns the
// median.
func medianOf(outcomes []jobOutcome, keep func(jobOutcome) bool, f func(jobOutcome) float64) float64 {
	var v []float64
	for _, o := range outcomes {
		if o.Err == "" && keep(o) {
			v = append(v, f(o))
		}
	}
	return median(v)
}

func (c *child) serviceLayers(outcomes []jobOutcome, k jobs.Counters) {
	all := func(jobOutcome) bool { return true }
	ran := func(o jobOutcome) bool { return o.Ran }
	c.layer("jobs.queue_wait_p50_s", medianOf(outcomes, ran, func(o jobOutcome) float64 { return o.QueueWaitS }))
	c.layer("jobs.run_p50_s", medianOf(outcomes, ran, func(o jobOutcome) float64 { return o.RunS }))
	c.layer("jobs.runs_started", float64(k.RunsStarted))
	c.layer("jobs.cache_hits", float64(k.CacheHits))
	c.layer("jobs.prefix_hits", float64(k.PrefixHits))
	c.layer("jobs.coalesced", float64(k.Coalesced))
	c.layer("jobs.hit_ratio", ratio(float64(k.CacheHits+k.PrefixHits), float64(k.Submitted)))
	c.layer("server.submit_p50_s", medianOf(outcomes, all, func(o jobOutcome) float64 { return o.SubmitS }))
	c.layer("server.result_p50_s", medianOf(outcomes, all, func(o jobOutcome) float64 { return o.ResultS }))
	// Bytes and rate are those of the supports downloads, where the
	// server names every mode's reactions; a summary is a few hundred
	// bytes whatever the result.
	var size, seconds float64
	for _, o := range outcomes {
		size += float64(o.SupportsBytes)
		seconds += o.SupportsS
	}
	c.layer("server.result_bytes", size)
	c.layer("server.result_mb_per_s", ratio(size/1e6, seconds))
	c.layer("server.first_mode_event_s", medianOf(outcomes,
		func(o jobOutcome) bool { return o.Kind == "stream" }, func(o jobOutcome) float64 { return o.FirstModeS }))
}

func tracedScan(c *child) error {
	run, err := runScan(c)
	if err != nil {
		return err
	}
	c.res.TracedWallS = c.res.WallS
	c.serviceLayers(run.outcomes, run.varz)

	// A cache hit re-parses and re-reduces the submitted network before
	// it decodes the cached payload; time both on the scan's base.
	const rounds = 20
	layers := c.tr.begin("layers", 0)
	var parse, reduction []float64
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		net, err := model.ParseString(c.p.ko3.Text)
		t1 := time.Now()
		if err != nil {
			return err
		}
		red, err := reduce.Network(net, reduce.Options{MergeDuplicates: true})
		t2 := time.Now()
		if err != nil {
			return err
		}
		c.tr.mark("model.parse", layers, t0, t1)
		c.tr.mark("reduce.network", layers, t1, t2)
		parse = append(parse, t1.Sub(t0).Seconds())
		reduction = append(reduction, t2.Sub(t1).Seconds())
		c.layer("reduce.rows", float64(red.N.Rows()))
		c.layer("reduce.cols", float64(red.N.Cols()))
	}
	c.tr.end(layers)
	c.layer("model.parse_s", median(parse))
	c.layer("reduce.network_s", median(reduction))
	return nil
}

func tracedFleet(c *child) error {
	run, err := runFleet(c)
	if err != nil {
		return err
	}
	c.res.TracedWallS = c.res.WallS
	o := run.outcome
	c.serviceLayers([]jobOutcome{o}, run.varz)
	c.layer("distrib.remote_classes", float64(run.varz.RemoteClasses))
	c.layer("distrib.requeues", float64(run.varz.RemoteRequeues))
	c.layer("distrib.steals", float64(run.varz.SchedSteals))
	c.layer("distrib.payload_bytes", float64(run.payload))
	c.layer("distrib.wire_bytes", float64(run.wire))
	c.layer("distrib.wire_bytes_per_class", ratio(float64(run.wire), float64(run.varz.RemoteClasses)))
	c.layer("dnc.classes", float64(o.Classes))
	c.layer("dnc.candidates", float64(o.Summary.CandidateModes))
	c.layer("dnc.peak_node_bytes", float64(o.Summary.PeakNodeBytes))
	if serial, ok := c.exp.Counters["yeast-serial/"+c.p.dd.Key]; ok {
		c.layer("dnc.candidate_ratio", ratio(float64(o.Summary.CandidateModes), serial["core.candidates"]))
	}

	// The same classes on the local scheduler with the same two busy
	// threads (two groups of one worker, as the fleet is two workers of
	// one thread); what the fleet's compute wall adds to this is the
	// price of dispatch.
	layers := c.tr.begin("layers", 0)
	net, err := elmocomp.ParseNetworkString(c.p.dd.Text)
	if err != nil {
		return err
	}
	sp := c.tr.begin("dnc.local", layers)
	local, err := elmocomp.ComputeEFMs(net, elmocomp.Config{
		Algorithm: elmocomp.DivideAndConquer, Qsub: c.p.qsubFleet,
		Nodes: 1, Workers: 1, GroupConcurrency: 2,
	})
	c.tr.end(sp)
	c.tr.end(layers)
	if err != nil {
		return err
	}
	c.check(c.p.dd.Key, local.Len(), fingerprintHex(local.Fingerprint()))
	c.layer("distrib.dispatch_overhead_s", o.RunS-c.tr.seconds(sp))
	// Class walls are not visible from outside when classes overlap;
	// these are the local run's engine-reported phase totals per class.
	var walls []float64
	for _, s := range local.Subproblems {
		walls = append(walls, s.Seconds.Total())
	}
	sum, max := sumMax(walls)
	c.layer("dnc.class_wall_sum_s", sum)
	c.layer("dnc.class_wall_max_s", max)
	return nil
}
