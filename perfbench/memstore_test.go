package main

import (
	"testing"

	"tnsr/internal/store"
	"tnsr/internal/store/storetest"
)

func TestMemStoreContract(t *testing.T) {
	storetest.Contract(t, func(t *testing.T) store.Storage {
		s := newMemStore()
		t.Cleanup(s.free)
		return s
	})
}

func TestArenaKeepsCopies(t *testing.T) {
	var a arena
	defer a.free()
	src := []byte("abc")
	b, err := a.copyIn(src)
	if err != nil {
		t.Fatal(err)
	}
	src[0] = 'x'
	big := make([]byte, arenaChunk+1) // larger than a chunk: gets its own
	c, err := a.copyIn(big)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "abc" || len(c) != len(big) || cap(b) != 3 {
		t.Fatalf("arena slices: %q len %d cap %d", b, len(c), cap(b))
	}
}
