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
