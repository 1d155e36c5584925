package lp

// SetNarrowBound replaces the magnitude at which dictionaries leave
// int64 for the programs prepared from now on (0: every dictionary is
// wide from its first entry) and returns the function that restores it.
func SetNarrowBound(b int64) (restore func()) {
	old := narrowBound
	narrowBound = b
	return func() { narrowBound = old }
}
