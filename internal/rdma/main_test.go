package rdma

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the package when a test leaves a send loop, or any
// other goroutine of this module, running (leakcheck).
func TestMain(m *testing.M) { leakcheck.Main(m) }
