package core

import (
	"testing"
	"unsafe"
)

// TestCorrBlockLayout pins the corrBlock field offsets kernel_amd64.s reads.
func TestCorrBlockLayout(t *testing.T) {
	var b corrBlock
	for _, f := range []struct {
		name      string
		got, want uintptr
	}{
		{"x", unsafe.Offsetof(b.x), 0},
		{"y", unsafe.Offsetof(b.y), 96},
		{"sLo", unsafe.Offsetof(b.sLo), 192},
		{"sHi", unsafe.Offsetof(b.sHi), 224},
		{"qLo", unsafe.Offsetof(b.qLo), 256},
		{"qHi", unsafe.Offsetof(b.qHi), 288},
		{"sx", unsafe.Offsetof(b.sx), 320},
		{"ix", unsafe.Offsetof(b.ix), 352},
		{"r", unsafe.Offsetof(b.r), 384},
	} {
		if f.got != f.want {
			t.Errorf("corrBlock.%s at offset %d, kernel_amd64.s reads %d", f.name, f.got, f.want)
		}
	}
}
