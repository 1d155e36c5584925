package core

import (
	"fmt"
	"os"
)

// spillFile is one on-disk compressed mode-set stream: a spilled
// round's backing storage between iteration rounds. The file holds
// exactly one EncodeCompressed payload and has no name: it is unlinked
// the moment it is created, so the open handle is the only reference
// and the kernel reclaims the blocks when the handle closes — in
// release, or with the process, however it dies. Where an open file
// cannot be unlinked (Windows) the path is kept and removed by release;
// the store manager releases on every re-Hold, on Materialize, and from
// the engine's deferred cleanup, so only a killed process leaves a file
// there.
type spillFile struct {
	f    *os.File
	path string // non-empty only where the early unlink failed
	size int64
}

// newSpillFile writes data to a fresh, already-unlinked temp file in
// dir (os.TempDir when empty). On any write error the file is released
// before returning.
func newSpillFile(dir string, data []byte) (*spillFile, error) {
	if dir == "" {
		dir = os.TempDir()
	}
	f, err := os.CreateTemp(dir, "elmocomp-spill-*.efmc")
	if err != nil {
		return nil, err
	}
	sf := &spillFile{f: f, size: int64(len(data))}
	if os.Remove(f.Name()) != nil {
		sf.path = f.Name()
	}
	if _, err := f.Write(data); err != nil {
		sf.release()
		return nil, fmt.Errorf("write spill %s: %w", f.Name(), err)
	}
	return sf, nil
}

// CheckSpillDir creates and releases one empty spill file in dir
// (os.TempDir when empty), so a process that may spill learns at
// start-up — not at its first over-budget round, the enumeration's work
// behind it — that the directory is missing or unwritable.
func CheckSpillDir(dir string) error {
	sf, err := newSpillFile(dir, nil)
	if err != nil {
		return fmt.Errorf("core: spill directory: %w", err)
	}
	return sf.release()
}

// bytes reads the file's contents back. The on-disk size is re-checked
// first: a truncated or grown file is corruption and must fail as an
// error, not decode a short or padded payload.
func (s *spillFile) bytes() ([]byte, error) {
	st, err := s.f.Stat()
	if err != nil {
		return nil, fmt.Errorf("stat spill %s: %w", s.f.Name(), err)
	}
	if st.Size() != s.size {
		return nil, fmt.Errorf("spill %s is %d bytes on disk, wrote %d", s.f.Name(), st.Size(), s.size)
	}
	buf := make([]byte, s.size)
	if _, err := s.f.ReadAt(buf, 0); err != nil {
		return nil, fmt.Errorf("read spill %s: %w", s.f.Name(), err)
	}
	return buf, nil
}

// release closes the file and, where it still has a name, removes it.
// Both steps run regardless of the other's failure.
func (s *spillFile) release() error {
	err := s.f.Close()
	if s.path != "" {
		if rerr := os.Remove(s.path); err == nil && !os.IsNotExist(rerr) {
			err = rerr
		}
	}
	return err
}
