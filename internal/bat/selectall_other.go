//go:build !amd64

package bat

// haveAVX2 is false off amd64: every conjunction runs the chain, and
// the kernels below are never reached.
var haveAVX2 = false

func rejectBlocks8(rej *uint32, v *uint8, blocks int, lo, span uint8) {
	panic("bat: no vector kernel on this architecture")
}

func rejectBlocks16(rej *uint32, v *uint16, blocks int, lo, span uint16) {
	panic("bat: no vector kernel on this architecture")
}
