package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"elmocomp/internal/model"
	"elmocomp/internal/nullspace"
	"elmocomp/internal/reduce"
)

// yeastMidRun caches a mid-run state of the pointed (all reversibles
// split) Network I problem — the realistic workload the compression
// ratio is judged on — so the store tests pay for the 18-row run once.
var (
	yeastMidOnce sync.Once
	yeastMid     struct {
		p   *nullspace.Problem
		set *ModeSet
		err error
	}
)

func yeastMidRun(tb testing.TB) (*nullspace.Problem, *ModeSet) {
	tb.Helper()
	yeastMidOnce.Do(func() {
		red, err := reduce.Network(model.YeastI(), reduce.Options{MergeDuplicates: true})
		if err != nil {
			yeastMid.err = err
			return
		}
		p, err := nullspace.New(red.N, red.Reversibilities(), nullspace.Heuristics{SplitAllReversible: true})
		if err != nil {
			yeastMid.err = err
			return
		}
		res, err := Run(p, Options{LastRow: p.D + 18})
		if err != nil {
			yeastMid.err = err
			return
		}
		yeastMid.p, yeastMid.set = p, res.Modes
	})
	if yeastMid.err != nil {
		tb.Fatal(yeastMid.err)
	}
	return yeastMid.p, yeastMid.set
}

// storeTestSets spans the format's corners: an empty set with revRows,
// the toy initial kernel set, a mid-run toy set (revRows and shifted
// tails) and the mid-run yeast set (hundreds of columns, many blocks).
func storeTestSets(t *testing.T) map[string]*ModeSet {
	t.Helper()
	red, err := reduce.Network(model.Toy(), reduce.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := nullspace.New(red.N, red.Reversibilities(), nullspace.Heuristics{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, Options{LastRow: p.Q() - 1})
	if err != nil {
		t.Fatal(err)
	}
	_, yeast := yeastMidRun(t)
	return map[string]*ModeSet{
		"empty":     NewModeSet(10, 3, []int{1}),
		"initial":   InitialModeSet(p, 1e-9),
		"midrun":    res.Modes,
		"yeast-mid": yeast,
	}
}

func TestCompressedCodecRoundTrip(t *testing.T) {
	for name, set := range storeTestSets(t) {
		t.Run(name, func(t *testing.T) {
			for _, blockSize := range []int{1, 3, DefaultStoreBlock} {
				enc := EncodeCompressedBlocks(set, blockSize)
				dec, err := DecodeCompressed(enc)
				if err != nil {
					t.Fatalf("block=%d: decode: %v", blockSize, err)
				}
				if dec.Len() != set.Len() || dec.Fingerprint() != set.Fingerprint() {
					t.Fatalf("block=%d: round trip drifted: %d/%016x modes, want %d/%016x",
						blockSize, dec.Len(), dec.Fingerprint(), set.Len(), set.Fingerprint())
				}
				if !bytes.Equal(dec.Encode(), set.Encode()) {
					t.Fatalf("block=%d: flat re-encode differs", blockSize)
				}
				if back := EncodeCompressedBlocks(dec, blockSize); !bytes.Equal(back, enc) {
					t.Fatalf("block=%d: compressed re-encode differs", blockSize)
				}
			}
		})
	}
}

// TestCompressedRatioYeast pins the acceptance bar: the delta encoding
// must at least halve the between-rounds footprint on the yeast hybrid
// workload.
func TestCompressedRatioYeast(t *testing.T) {
	_, set := yeastMidRun(t)
	enc := EncodeCompressed(set)
	flat := set.MemoryBytes()
	ratio := float64(flat) / float64(len(enc))
	t.Logf("yeast mid-run: %d modes, flat %d B (%.1f B/mode), compressed %d B (%.1f B/mode), ratio %.2fx",
		set.Len(), flat, float64(flat)/float64(set.Len()), len(enc), float64(len(enc))/float64(set.Len()), ratio)
	if ratio < 2 {
		t.Fatalf("compression ratio %.2fx below the 2x bar", ratio)
	}
}

func TestStoreBudgetStateMachine(t *testing.T) {
	_, set := yeastMidRun(t)
	flat := set.MemoryBytes()
	enc := int64(len(EncodeCompressed(set)))
	if enc >= flat/2 {
		t.Fatalf("test premise broken: encoded %d B not under half of flat %d B", enc, flat)
	}

	t.Run("inactive-pass-through", func(t *testing.T) {
		m := NewStoreManager(Options{})
		defer m.Release()
		if m.Active() {
			t.Fatal("zero-options store claims to be active")
		}
		if err := m.Hold(set); err != nil {
			t.Fatal(err)
		}
		got, err := m.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		if got != set {
			t.Fatal("inactive store must alias, not copy")
		}
		if st := m.Stats(); st != (StoreStats{}) {
			t.Fatalf("inactive store kept stats: %+v", st)
		}
	})

	t.Run("flat-with-headroom", func(t *testing.T) {
		m := NewStoreManager(Options{MemBudget: 2 * flat})
		defer m.Release()
		if err := m.Hold(set); err != nil {
			t.Fatal(err)
		}
		if st := m.Stats(); st.Engaged() || st.FlatBytes != flat || st.HeldBytes != flat {
			t.Fatalf("expected a flat hold, got %+v", st)
		}
		if got, _ := m.Materialize(); got != set {
			t.Fatal("a flat hold must alias the held set")
		}
	})

	t.Run("spill-when-tight", func(t *testing.T) {
		// The set fits the budget but the next round's survivors would
		// not fit beside it.
		m := NewStoreManager(Options{MemBudget: flat + flat/2, SpillDir: t.TempDir()})
		defer m.Release()
		if err := m.Hold(set); err != nil {
			t.Fatal(err)
		}
		st := m.Stats()
		if st.Spills != 1 || st.SpillBytes != enc || st.HeldBytes != 0 {
			t.Fatalf("expected one %d-byte spill holding nothing, got %+v", enc, st)
		}
		if rb := m.ResidentBytes(); rb != 0 {
			t.Fatalf("spilled store still resident: %d B", rb)
		}
		got, err := m.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		if got == set || got.Fingerprint() != set.Fingerprint() {
			t.Fatal("spill materialization must rebuild an identical set")
		}
	})

	t.Run("spill-when-over", func(t *testing.T) {
		dir := t.TempDir()
		m := NewStoreManager(Options{MemBudget: flat, SpillDir: dir})
		defer m.Release()
		if err := m.Hold(set); err != nil {
			t.Fatal(err)
		}
		st := m.Stats()
		if st.Spills != 1 || st.SpillBytes != enc || st.HeldBytes != 0 {
			t.Fatalf("expected one %d-byte spill, got %+v", enc, st)
		}
		if rb := m.ResidentBytes(); rb != 0 {
			t.Fatalf("spilled store still resident: %d B", rb)
		}
		got, err := m.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		if got.Fingerprint() != set.Fingerprint() {
			t.Fatal("spill materialization drifted")
		}
		if ents, _ := os.ReadDir(dir); len(ents) != 0 {
			t.Fatalf("spill file survived materialization: %v", ents)
		}
	})

	t.Run("strict-over-budget", func(t *testing.T) {
		m := NewStoreManager(Options{MemBudget: flat - 1, StrictMemBudget: true})
		defer m.Release()
		err := m.Hold(set)
		if !errors.Is(err, ErrMemBudget) || !errors.Is(err, ErrBudget) {
			t.Fatalf("want ErrMemBudget (matching ErrBudget), got %v", err)
		}
	})

	t.Run("strict-under-budget", func(t *testing.T) {
		m := NewStoreManager(Options{MemBudget: flat + flat/2, StrictMemBudget: true, SpillDir: t.TempDir()})
		defer m.Release()
		if err := m.Hold(set); err != nil {
			t.Fatal(err)
		}
		if st := m.Stats(); st.Spills != 1 {
			t.Fatalf("strict mode must still spill under budget, got %+v", st)
		}
	})

	t.Run("wide-set-stays-flat", func(t *testing.T) {
		wide := NewModeSet(maxStoreQ+1, maxStoreQ+1, nil)
		wide.appendRaw() // one all-zero mode: over a one-byte budget
		m := NewStoreManager(Options{MemBudget: 1})
		defer m.Release()
		if err := m.Hold(wide); err != nil {
			t.Fatal(err)
		}
		if st := m.Stats(); st.Engaged() || st.HeldBytes != wide.MemoryBytes() {
			t.Fatalf("sets beyond maxStoreQ must stay flat, got %+v", st)
		}
	})

	t.Run("empty-store", func(t *testing.T) {
		m := NewStoreManager(Options{})
		if _, err := m.Materialize(); err == nil {
			t.Fatal("materializing an empty store must fail")
		}
		m.Release()
		m.Release() // idempotent
	})
}

// TestStoreTierEquivalence is the engine-level determinism contract:
// flat or spilled, at every budget, the run produces the byte-identical
// mode set.
func TestStoreTierEquivalence(t *testing.T) {
	red, err := reduce.Network(model.Toy(), reduce.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := nullspace.New(red.N, red.Reversibilities(), nullspace.Heuristics{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantFP, wantLen := base.Modes.Fingerprint(), base.Modes.Len()
	if base.Store.Engaged() {
		t.Fatalf("unbudgeted run engaged the store: %+v", base.Store)
	}

	cases := []struct {
		name    string
		opts    Options
		engaged bool
	}{
		{"forced-flat", Options{}, false},
		{"forced-spill", Options{MemBudget: 1}, true},
		// One byte short of keeping the final set flat: the small early
		// rounds stay in RAM and the run still spills.
		{"tiny-budget", Options{MemBudget: 2*base.Modes.MemoryBytes() - 1}, true},
		{"huge-budget", Options{MemBudget: 1 << 40}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.opts.SpillDir = dir
			res, err := Run(p, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Modes.Len() != wantLen || res.Modes.Fingerprint() != wantFP {
				t.Fatalf("%d modes / %016x, flat run found %d / %016x",
					res.Modes.Len(), res.Modes.Fingerprint(), wantLen, wantFP)
			}
			if res.Store.Engaged() != tc.engaged {
				t.Fatalf("store engagement = %v, want %v (stats %+v)", res.Store.Engaged(), tc.engaged, res.Store)
			}
			if ents, _ := os.ReadDir(dir); len(ents) != 0 {
				t.Fatalf("spill files survived a completed run: %v", ents)
			}
		})
	}
}

// TestCorruptSpillFailsCleanly damages the spill file between Hold and
// Materialize in every structurally distinct way — through the store's
// own handle, the file having no name to open — and the run must fail
// loudly (never decode into plausible nonsense) with the file released.
func TestCorruptSpillFailsCleanly(t *testing.T) {
	_, set := yeastMidRun(t)
	cases := []struct {
		name    string
		corrupt func([]byte) []byte
	}{
		{"truncated", func(d []byte) []byte { return d[:len(d)/2] }},
		{"empty", func(d []byte) []byte { return nil }},
		{"bad-magic", func(d []byte) []byte { d[0] ^= 0xFF; return d }},
		{"bad-header", func(d []byte) []byte { d[20] ^= 0xFF; return d }}, // mode count
		{"bad-block-length", func(d []byte) []byte { d[storeHeaderLen] ^= 0x01; return d }},
		{"bad-checksum", func(d []byte) []byte { d[storeHeaderLen+5] ^= 0x01; return d }},
		{"flipped-payload", func(d []byte) []byte { d[len(d)-3] ^= 0x40; return d }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			m := NewStoreManager(Options{MemBudget: 1, SpillDir: dir})
			defer m.Release()
			if err := m.Hold(set); err != nil {
				t.Fatal(err)
			}
			f := m.spill.f
			data := make([]byte, m.spill.size)
			if _, err := f.ReadAt(data, 0); err != nil {
				t.Fatal(err)
			}
			data = tc.corrupt(data)
			if err := f.Truncate(int64(len(data))); err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(data, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Materialize(); err == nil {
				t.Fatal("materializing a damaged spill must fail")
			}
			if m.spill != nil {
				t.Fatal("damaged spill file still held after the failed read")
			}
			if ents, _ := os.ReadDir(dir); len(ents) != 0 {
				t.Fatalf("damaged spill file not cleaned up: %v", ents)
			}
		})
	}
}

// TestSpillCleanupOnCancel cancels a spilling run between rounds: the
// engine's deferred release must leave no on-disk state.
func TestSpillCleanupOnCancel(t *testing.T) {
	red, err := reduce.Network(model.Toy(), reduce.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := nullspace.New(red.N, red.Reversibilities(), nullspace.Heuristics{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cancel := make(chan struct{})
	rows := 0
	_, err = Run(p, Options{
		MemBudget: 1,
		SpillDir:  dir,
		Cancel:    cancel,
		Trace: func(IterStats, *ModeSet) {
			if rows++; rows == 2 {
				close(cancel)
			}
		},
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("canceled run leaked spill files: %v", ents)
	}
}

// TestCheckSpillDir is the start-up probe's contract: every way a spill
// directory can be unusable is an error naming it, found before any
// enumeration work, and a usable one is left empty.
func TestCheckSpillDir(t *testing.T) {
	base := t.TempDir()
	file := filepath.Join(base, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	readOnly := filepath.Join(base, "read-only")
	if err := os.Mkdir(readOnly, 0o555); err != nil {
		t.Fatal(err)
	}
	good := filepath.Join(base, "good")
	if err := os.Mkdir(good, 0o755); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, dir string
		ok        bool
	}{
		{"missing-dir", filepath.Join(base, "missing"), false},
		{"file-not-dir", file, false},
		{"read-only-dir", readOnly, false},
		{"good-dir", good, true},
	}
	_, set := yeastMidRun(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.dir == readOnly && os.Geteuid() == 0 {
				t.Skip("root creates files in a read-only directory")
			}
			err := CheckSpillDir(tc.dir)
			if tc.ok != (err == nil) {
				t.Fatalf("CheckSpillDir(%s) = %v, want ok=%v", tc.dir, err, tc.ok)
			}
			if err != nil && !strings.Contains(err.Error(), tc.dir) {
				t.Fatalf("error does not name the directory: %v", err)
			}
			// The failure an unprobed run would hit at its first spill.
			m := NewStoreManager(Options{MemBudget: 1, SpillDir: tc.dir})
			defer m.Release()
			if herr := m.Hold(set); tc.ok != (herr == nil) {
				t.Fatalf("probe said %v, the first spill said %v", err, herr)
			}
		})
	}
	if ents, _ := os.ReadDir(good); len(ents) != 0 {
		t.Fatalf("probe left files behind: %v", ents)
	}
}
