package main

import (
	"fmt"
	"sync"
	"syscall"
)

// arena is append-only memory outside the Go heap, for bytes the
// benchmark must hold but the live-heap metric must not count: the
// service store's contents (which a RAM-backed filesystem would keep in
// the page cache, not in the process heap) and xlate-cold's input pool.
// Slices it returns are valid until free.
type arena struct {
	mu     sync.Mutex
	chunks [][]byte
	off    int // used bytes of the last chunk
}

const arenaChunk = 64 << 20

// copyIn stores a copy of data and returns it.
func (a *arena) copyIn(data []byte) ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.chunks) == 0 || a.off+len(data) > len(a.chunks[len(a.chunks)-1]) {
		c, err := syscall.Mmap(-1, 0, max(arenaChunk, len(data)),
			syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return nil, fmt.Errorf("arena: %w", err)
		}
		a.chunks, a.off = append(a.chunks, c), 0
	}
	c := a.chunks[len(a.chunks)-1]
	b := c[a.off : a.off+len(data) : a.off+len(data)]
	copy(b, data)
	a.off += len(data)
	return b, nil
}

// free unmaps every chunk; nothing may touch a returned slice afterwards.
func (a *arena) free() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, c := range a.chunks {
		syscall.Munmap(c)
	}
	a.chunks, a.off = nil, 0
}
