package rdma

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the package when a test leaves a goroutine of this
// module running, or a socket open: a link nothing closed (leakcheck).
func TestMain(m *testing.M) { leakcheck.Main(m) }
