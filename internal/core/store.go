package core

import (
	"errors"
	"fmt"
)

// ErrMemBudget marks a run rejected under a strict memory budget: the
// surviving mode set's flat working footprint exceeded Options.MemBudget,
// so spilling cannot keep the NEXT round (which needs the set flat)
// within budget. It matches ErrBudget, so the divide-and-conquer driver
// re-splits on it through the same typed path as a mode-count overflow.
// Only the dnc driver sets Options.StrictMemBudget — and only while
// re-split depth remains — so a standalone run, or a subproblem at the
// depth limit, degrades to spilling instead of failing.
var ErrMemBudget = fmt.Errorf("%w (resident bytes over the memory budget)", ErrBudget)

// StoreStats counts the store's activity across one run. Totals are
// deterministic for a given problem and options: the flat-or-spilled
// choice depends only on set sizes and the budget, never on timing.
type StoreStats struct {
	// Spills counts rounds whose surviving set was written to disk.
	Spills int64 `json:"spills"`
	// SpillBytes totals the encoded bytes written to spill files.
	SpillBytes int64 `json:"spill_bytes"`
	// FlatBytes totals the flat payload bytes offered to the store —
	// what an unbudgeted run would have kept resident between rounds.
	FlatBytes int64 `json:"flat_bytes"`
	// HeldBytes totals the bytes actually kept resident between rounds
	// (the flat size of a round that stayed in RAM, nothing for a
	// spilled one).
	HeldBytes int64 `json:"held_bytes"`
	// PeakHeldBytes is the largest single between-rounds resident
	// footprint.
	PeakHeldBytes int64 `json:"peak_held_bytes"`
}

// Add folds another store's counters into s (driver aggregation).
func (s *StoreStats) Add(o StoreStats) {
	s.Spills += o.Spills
	s.SpillBytes += o.SpillBytes
	s.FlatBytes += o.FlatBytes
	s.HeldBytes += o.HeldBytes
	if o.PeakHeldBytes > s.PeakHeldBytes {
		s.PeakHeldBytes = o.PeakHeldBytes
	}
}

// Engaged reports whether any round was spilled.
func (s StoreStats) Engaged() bool { return s.Spills > 0 }

// StoreManager is the between-rounds custody of the surviving mode set:
// Hold takes the set after a row's assemble, Materialize returns it
// flat before the next row begins, Release drops whatever is held.
// The engine's within-row working state (current set, candidates, next
// set) is always flat — the store bounds what stays resident BETWEEN
// iteration rounds, which is what the per-node memory gauge and the
// scheduler's PeakConcurrentBytes see across concurrent subproblems.
//
// A held set is in one of two states. With flatBytes the set's flat
// footprint and B = Options.MemBudget it stays flat while
// 2·flatBytes ≤ B (headroom for the next round's survivor set alongside
// this one) and is otherwise spilled: EFMC-encoded (EncodeCompressed)
// to an anonymous temp file, nothing resident until Materialize reads
// it back. There is no in-RAM encoded state (DESIGN.md §14).
//
// Options.StrictMemBudget converts an over-budget flat footprint into
// ErrMemBudget instead of spilling — the dnc driver's re-split trigger.
// With no budget the store is an inert pass-through: Hold/Materialize
// alias the set with no copying, no accounting, no overhead.
type StoreManager struct {
	opts  Options
	flat  *ModeSet
	spill *spillFile
	stats StoreStats
}

// NewStoreManager returns a store driven by the run's options.
func NewStoreManager(opts Options) *StoreManager { return &StoreManager{opts: opts} }

// Active reports whether the store can ever spill. When false the store
// is a pass-through and keeps no statistics, so the unbudgeted hot path
// is byte-for-byte the old one.
func (m *StoreManager) Active() bool { return m.opts.MemBudget > 0 }

// Hold takes custody of the surviving set for the between-rounds gap,
// spilling it when the budget leaves no headroom. Under a strict budget
// an over-budget flat footprint returns ErrMemBudget (wrapping
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
	if m.opts.StrictMemBudget && flatBytes > budget {
		return fmt.Errorf("%w: %d-byte mode set at row %d against a %d-byte budget",
			ErrMemBudget, flatBytes, set.FirstRow(), budget)
	}
	if 2*flatBytes <= budget || set.Q() > maxStoreQ {
		m.stats.HeldBytes += flatBytes
		if flatBytes > m.stats.PeakHeldBytes {
			m.stats.PeakHeldBytes = flatBytes
		}
		return nil
	}
	enc := EncodeCompressed(set)
	sf, err := newSpillFile(m.opts.SpillDir, enc)
	if err != nil {
		return fmt.Errorf("core: spill store: %w", err)
	}
	m.spill, m.flat = sf, nil
	m.stats.Spills++
	m.stats.SpillBytes += int64(len(enc))
	return nil
}

// Materialize returns the held set in flat form, reading back and
// releasing a spilled one. A flat round is an alias, not a copy. A
// damaged spill fails here — loudly, with the run erroring out instead
// of continuing on corrupt modes.
func (m *StoreManager) Materialize() (*ModeSet, error) {
	switch {
	case m.flat != nil:
		return m.flat, nil
	case m.spill != nil:
		data, err := m.spill.bytes()
		var set *ModeSet
		if err == nil {
			set, err = DecodeCompressed(data)
		}
		m.drop() // best-effort temp cleanup; the decode verdict decides the run
		if err != nil {
			return nil, fmt.Errorf("core: spill store: %w", err)
		}
		m.flat = set
		return set, nil
	}
	return nil, errors.New("core: empty mode store")
}

// Release drops whatever is held, closing any spill file. Safe to call
// repeatedly and from deferred cleanup on every abort/cancel path.
func (m *StoreManager) Release() {
	m.drop()
	m.flat = nil
}

func (m *StoreManager) drop() {
	if m.spill != nil {
		m.spill.release()
		m.spill = nil
	}
}

// ResidentBytes is the store's current in-RAM footprint: the flat set,
// or 0 for a spilled round.
func (m *StoreManager) ResidentBytes() int64 {
	if m.flat != nil {
		return m.flat.MemoryBytes()
	}
	return 0
}

// Stats returns the counters accumulated so far.
func (m *StoreManager) Stats() StoreStats { return m.stats }
