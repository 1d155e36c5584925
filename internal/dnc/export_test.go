package dnc

import "elmocomp/internal/ratmat"

// Test hooks for the external dnc_test package, whose tests also drive
// internal/distrib (which imports this package, so they cannot live in
// package dnc).
var TreeKey = treeKey

func NewFakeExec(n *ratmat.Matrix, rev []bool, slots int) RemoteExecutor {
	return newFakeExec(n, rev, slots)
}
