//go:build unix

package core

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"testing"
)

// TestSpillLeavesNothingAfterKill is the anonymous spill file's point: a
// process killed while it holds a spilled set gets no cleanup path, and
// the spill directory must be empty all the same. The test re-executes
// its own binary as the process to kill.
func TestSpillLeavesNothingAfterKill(t *testing.T) {
	const dirEnv = "ELMOCOMP_SPILL_KILL_DIR"
	if dir := os.Getenv(dirEnv); dir != "" {
		_, set := yeastMidRun(t)
		m := NewStoreManager(Options{MemBudget: 1, SpillDir: dir})
		if err := m.Hold(set); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("spills=%d\n", m.Stats().Spills)
		select {} // hold the spilled set until killed
	}

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestSpillLeavesNothingAfterKill$")
	cmd.Env = append(os.Environ(), dirEnv+"="+dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(out).ReadString('\n')
	cmd.Process.Kill() // SIGKILL
	cmd.Wait()
	if err != nil || line != "spills=1\n" {
		t.Fatalf("helper did not reach its spilled hold: %q (%v)", line, err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("killed process left spill files behind: %v", ents)
	}
}
