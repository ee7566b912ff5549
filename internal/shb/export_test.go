package shb

// NodeBufferPooled reports whether the node pool holds a buffer for the
// calling goroutine's processor, and leaves it there.
func NodeBufferPooled() bool {
	buf := nodePool.Get()
	if buf != nil {
		nodePool.Put(buf)
	}
	return buf != nil
}
