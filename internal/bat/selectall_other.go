//go:build !amd64

package bat

import "unsafe"

// haveAVX2 is false off amd64: rejectRange tests the codes a word at a
// time, and the kernels below are never reached.
var haveAVX2 = false

// haveVBMI2 is false off amd64: FetchAll's and SumKept's gathers run
// gatherKept's loop, rejectCodes rejectRange and SelectSum its
// definition, and the compress and term-table kernels below are never
// reached.
var haveVBMI2 = false

func rejectBlocks8(rej *uint32, v *uint8, blocks int, lo, span uint8) {
	panic("bat: no vector kernel on this architecture")
}

func rejectBlocks16(rej *uint32, v *uint16, blocks int, lo, span uint16) {
	panic("bat: no vector kernel on this architecture")
}

func selectWords(out, src unsafe.Pointer, tab *wordTerm, wide, narrow, blocks, exit int) int {
	panic("bat: no vector kernel on this architecture")
}

func compress8to8(dst *uint8, src *uint8, rej *uint64, words int, d uint8) int {
	panic("bat: no vector kernel on this architecture")
}

func compress8to16(dst *uint16, src *uint8, rej *uint64, words int, d uint16) int {
	panic("bat: no vector kernel on this architecture")
}

func compress8to32(dst *uint32, src *uint8, rej *uint64, words int, d uint32) int {
	panic("bat: no vector kernel on this architecture")
}

func compress16to16(dst *uint16, src *uint16, rej *uint64, words int, d uint16) int {
	panic("bat: no vector kernel on this architecture")
}

func compress16to32(dst *uint32, src *uint16, rej *uint64, words int, d uint32) int {
	panic("bat: no vector kernel on this architecture")
}

func compress32to32(dst *uint32, src *uint32, rej *uint64, words int, d uint32) int {
	panic("bat: no vector kernel on this architecture")
}
