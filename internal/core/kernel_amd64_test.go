package core

import (
	"testing"
	"unsafe"
)

// TestCorrBlockLayout pins the chanBlock and corrBlock field offsets
// kernel_amd64.s reads; the two blocks share them.
func TestCorrBlockLayout(t *testing.T) {
	var c chanBlock
	var b corrBlock
	for _, f := range []struct {
		name      string
		got, want uintptr
	}{
		{"chanBlock.x", unsafe.Offsetof(c.x), 0},
		{"chanBlock.y", unsafe.Offsetof(c.y), 96},
		{"chanBlock.sy", unsafe.Offsetof(c.sy), 192},
		{"chanBlock.qy", unsafe.Offsetof(c.qy), 224},
		{"chanBlock.sx", unsafe.Offsetof(c.sx), 256},
		{"chanBlock.ix", unsafe.Offsetof(c.ix), 288},
		{"chanBlock.r", unsafe.Offsetof(c.r), 320},
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
