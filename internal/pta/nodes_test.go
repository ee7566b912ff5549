package pta

import (
	"testing"
	"unsafe"
)

// The solver creates one nodeInfo per PAG node: keep it at 24 bytes,
// which needs the field ID in place of the name and kind packed last.
func TestNodeInfoSize(t *testing.T) {
	if sz := unsafe.Sizeof(nodeInfo{}); sz > 24 {
		t.Errorf("nodeInfo is %d bytes, want at most 24", sz)
	}
}

// The solver keeps one pnode per PAG node: keep it at 64 bytes, which
// needs its two points-to sets to be 16-byte Bits.
func TestPNodeSize(t *testing.T) {
	if sz := unsafe.Sizeof(pnode{}); sz > 64 {
		t.Errorf("pnode is %d bytes, want at most 64", sz)
	}
}
