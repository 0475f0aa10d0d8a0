package server

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the package when a test leaves a server, a ring or
// any other goroutine of this module running (leakcheck).
func TestMain(m *testing.M) { leakcheck.Main(m) }
