package core

import (
	"errors"
	"fmt"
)

// StoreTier identifies a representation tier of the between-rounds mode
// store.
type StoreTier int

const (
	// TierAuto picks the tier per Options.MemBudget (the default; with
	// no budget it degenerates to a flat pass-through).
	TierAuto StoreTier = iota
	// TierFlat holds the surviving set in its flat in-RAM form.
	TierFlat
	// TierCompressed holds the surviving set delta-encoded in RAM.
	TierCompressed
	// TierSpill writes the delta-encoded set to a temp file and maps it
	// back on demand, keeping almost nothing resident between rounds.
	TierSpill
)

func (t StoreTier) String() string {
	switch t {
	case TierAuto:
		return "auto"
	case TierFlat:
		return "flat"
	case TierCompressed:
		return "compressed"
	case TierSpill:
		return "spill"
	}
	return fmt.Sprintf("StoreTier(%d)", int(t))
}

// ErrMemBudget marks a run rejected under a strict memory budget: the
// surviving mode set's flat working footprint exceeded Options.MemBudget,
// so no store tier can keep the NEXT round (which needs the set flat)
// within budget. It matches ErrBudget, so the divide-and-conquer driver
// re-splits on it through the same typed path as a mode-count overflow.
// Only the dnc driver sets Options.StrictMemBudget — and only while
// re-split depth remains — so a standalone run, or a subproblem at the
// depth limit, degrades to compression and spilling instead of failing.
var ErrMemBudget = fmt.Errorf("%w (resident bytes over the memory budget)", ErrBudget)

// StoreStats counts the store's tier activity across one run. Totals
// are deterministic for a given problem and options: tier choices
// depend only on set sizes and the budget, never on timing.
type StoreStats struct {
	// Compressions counts rounds whose surviving set was held
	// delta-encoded in RAM.
	Compressions int64 `json:"compressions"`
	// Spills counts rounds whose surviving set was written to disk.
	Spills int64 `json:"spills"`
	// SpillBytes totals the encoded bytes written to spill files.
	SpillBytes int64 `json:"spill_bytes"`
	// FlatBytes totals the flat payload bytes offered to the store —
	// what an unbudgeted run would have kept resident between rounds.
	FlatBytes int64 `json:"flat_bytes"`
	// HeldBytes totals the bytes actually kept resident between rounds
	// (encoded size for compressed rounds, ~0 for spilled rounds).
	// FlatBytes/HeldBytes is the realized compression ratio.
	HeldBytes int64 `json:"held_bytes"`
	// PeakHeldBytes is the largest single between-rounds resident
	// footprint.
	PeakHeldBytes int64 `json:"peak_held_bytes"`
}

// Add folds another store's counters into s (driver aggregation).
func (s *StoreStats) Add(o StoreStats) {
	s.Compressions += o.Compressions
	s.Spills += o.Spills
	s.SpillBytes += o.SpillBytes
	s.FlatBytes += o.FlatBytes
	s.HeldBytes += o.HeldBytes
	if o.PeakHeldBytes > s.PeakHeldBytes {
		s.PeakHeldBytes = o.PeakHeldBytes
	}
}

// Engaged reports whether any round actually left the flat tier.
func (s StoreStats) Engaged() bool { return s.Compressions > 0 || s.Spills > 0 }

// StoreManager is the between-rounds custody of the surviving mode set:
// Hold takes the set after a row's assemble, Materialize returns it
// flat before the next row begins, Release drops whatever is held.
// The engine's within-row working state (current set, candidates, next
// set) is always flat — the store bounds what stays resident BETWEEN
// iteration rounds, which is what the per-node memory gauge and the
// scheduler's PeakConcurrentBytes see across concurrent subproblems.
//
// Tier choice per round, with flatBytes the set's flat footprint and
// B = Options.MemBudget:
//
//	flat        while 2·flatBytes ≤ B (headroom for the next round's
//	            survivor set alongside this one)
//	compressed  while encoded + flatBytes ≤ B (the encoded copy can
//	            coexist with its own re-materialization)
//	spill       otherwise
//
// Options.ForceStoreTier pins the choice (ablation and benchmarks);
// Options.StrictMemBudget converts an over-budget flat footprint into
// ErrMemBudget instead of silently degrading — the dnc driver's
// re-split trigger. A zero-value Options store (no budget, no forced
// tier) is an inert pass-through: Hold/Materialize alias the set with
// no copying, no accounting, no overhead.
type StoreManager struct {
	opts  Options
	flat  *ModeSet
	comp  []byte
	spill *spillFile
	stats StoreStats
}

// NewStoreManager returns a store driven by the run's options.
func NewStoreManager(opts Options) *StoreManager { return &StoreManager{opts: opts} }

// Active reports whether the store can ever leave the flat tier. When
// false the store is a pass-through and keeps no statistics, so the
// unbudgeted hot path is byte-for-byte the old one.
func (m *StoreManager) Active() bool {
	return m.opts.MemBudget > 0 || m.opts.ForceStoreTier != TierAuto
}

// Hold takes custody of the surviving set for the between-rounds gap,
// encoding or spilling it per the budget state machine. Under a strict
// budget an over-budget flat footprint returns ErrMemBudget (wrapping
// ErrBudget) and the set stays resident for the caller's unwind.
func (m *StoreManager) Hold(set *ModeSet) error {
	m.drop()
	m.flat = set
	if !m.Active() {
		return nil
	}
	flatBytes := set.MemoryBytes()
	m.stats.FlatBytes += flatBytes
	budget := m.opts.MemBudget
	if m.opts.StrictMemBudget && budget > 0 && flatBytes > budget {
		return fmt.Errorf("%w: %d-byte mode set at row %d against a %d-byte budget",
			ErrMemBudget, flatBytes, set.FirstRow(), budget)
	}
	tier := m.opts.ForceStoreTier
	if tier == TierAuto {
		tier = TierFlat
		if budget > 0 && 2*flatBytes > budget {
			tier = TierCompressed // upgraded to spill below if the encoding is still too large
		}
	}
	if tier == TierFlat || set.Q() > maxStoreQ {
		m.held(flatBytes)
		return nil
	}
	enc := EncodeCompressed(set)
	if tier == TierCompressed && m.opts.ForceStoreTier == TierAuto &&
		int64(len(enc))+flatBytes > budget {
		tier = TierSpill
	}
	if tier == TierSpill {
		sf, err := newSpillFile(m.opts.SpillDir, enc)
		if err != nil {
			return fmt.Errorf("core: spill store: %w", err)
		}
		m.spill, m.flat = sf, nil
		m.stats.Spills++
		m.stats.SpillBytes += int64(len(enc))
		m.held(0)
		return nil
	}
	m.comp, m.flat = enc, nil
	m.stats.Compressions++
	m.held(int64(len(enc)))
	return nil
}

func (m *StoreManager) held(bytes int64) {
	m.stats.HeldBytes += bytes
	if bytes > m.stats.PeakHeldBytes {
		m.stats.PeakHeldBytes = bytes
	}
}

// Materialize returns the held set in flat form, decoding a compressed
// round and paging + removing a spilled one. On the flat tier it is an
// alias, not a copy. A damaged spill or encoding fails here — loudly,
// with the run erroring out instead of continuing on corrupt modes.
func (m *StoreManager) Materialize() (*ModeSet, error) {
	switch {
	case m.flat != nil:
		return m.flat, nil
	case m.comp != nil:
		set, err := DecodeCompressed(m.comp)
		if err != nil {
			return nil, fmt.Errorf("core: compressed store: %w", err)
		}
		m.comp = nil
		m.flat = set
		return set, nil
	case m.spill != nil:
		data, err := m.spill.bytes()
		var set *ModeSet
		if err == nil {
			set, err = DecodeCompressed(data)
		}
		m.spill.release() // best-effort temp cleanup; the decode verdict decides the run
		m.spill = nil
		if err != nil {
			return nil, fmt.Errorf("core: spill store: %w", err)
		}
		m.flat = set
		return set, nil
	}
	return nil, errors.New("core: empty mode store")
}

// Release drops whatever is held, removing any spill file. Safe to call
// repeatedly and from deferred cleanup on every abort/cancel path.
func (m *StoreManager) Release() {
	m.drop()
	m.flat = nil
}

func (m *StoreManager) drop() {
	m.comp = nil
	if m.spill != nil {
		m.spill.release()
		m.spill = nil
	}
}

// ResidentBytes is the store's current in-RAM footprint: the flat set,
// the encoded copy, or ~0 for a spilled round.
func (m *StoreManager) ResidentBytes() int64 {
	switch {
	case m.flat != nil:
		return m.flat.MemoryBytes()
	case m.comp != nil:
		return int64(len(m.comp))
	}
	return 0
}

// Stats returns the tier counters accumulated so far.
func (m *StoreManager) Stats() StoreStats { return m.stats }
