package scenario

import (
	"os"
	"testing"
)

// TestMain runs every test of the package with leases poisoned: a
// released buffer is overwritten with 0xDB and never reissued, and a
// second Release panics. Tests that measure recycling itself switch it
// off on the world they build.
func TestMain(m *testing.M) {
	poisonLeases = true
	os.Exit(m.Run())
}
