package core

import (
	"testing"
	"unsafe"
)

// TestCorrBlockLayout pins the chanTable, chanLanes and corrBlock field
// offsets kernel_amd64.s reads, and the chanLanes stride it steps by.
func TestCorrBlockLayout(t *testing.T) {
	var tb chanTable
	var ln chanLanes
	var b corrBlock
	for _, f := range []struct {
		name      string
		got, want uintptr
	}{
		{"chanTable.ref", unsafe.Offsetof(tb.ref), 0},
		{"chanTable.tgt", unsafe.Offsetof(tb.tgt), 24},
		{"chanTable.pre", unsafe.Offsetof(tb.pre), 48},
		{"chanTable.lanes", unsafe.Offsetof(tb.lanes), 72},
		{"chanTable.k", unsafe.Offsetof(tb.k), 96},
		{"chanTable.w", unsafe.Offsetof(tb.w), 104},
		{"chanTable.tail", unsafe.Offsetof(tb.tail), 112},
		{"chanLanes.ref", unsafe.Offsetof(ln.ref), 0},
		{"chanLanes.tgt", unsafe.Offsetof(ln.tgt), 32},
		{"chanLanes.pre", unsafe.Offsetof(ln.pre), 64},
		{"chanLanes.sx", unsafe.Offsetof(ln.sx), 96},
		{"chanLanes.ix", unsafe.Offsetof(ln.ix), 128},
		{"sizeof chanLanes", unsafe.Sizeof(ln), 160},
		{"sizeof rowPre", unsafe.Sizeof(rowPre{}), 8},
		{"corrBlock.x", unsafe.Offsetof(b.x), 0},
		{"corrBlock.y", unsafe.Offsetof(b.y), 96},
		{"corrBlock.sy", unsafe.Offsetof(b.sy), 192},
		{"corrBlock.qy", unsafe.Offsetof(b.qy), 224},
		{"corrBlock.sx", unsafe.Offsetof(b.sx), 256},
		{"corrBlock.ix", unsafe.Offsetof(b.ix), 288},
		{"corrBlock.r", unsafe.Offsetof(b.r), 320},
	} {
		if f.got != f.want {
			t.Errorf("%s at offset %d, kernel_amd64.s reads %d", f.name, f.got, f.want)
		}
	}
}
