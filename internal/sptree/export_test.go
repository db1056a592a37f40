package sptree

// SetShapeCap sets the shape-table cap for a test and returns a
// function restoring the old one.
func SetShapeCap(n int) (restore func()) {
	old := shapeCap
	shapeCap = n
	return func() { shapeCap = old }
}
