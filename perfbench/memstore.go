package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"tnsr/internal/store"
)

// memStore is a RAM-backed store.Storage for the in-process service. A
// run may write only inside its checkout, which sits on a disk
// filesystem, and a disk store's fsync on every put and inode update on
// every hit would make the xlate figures measure the disk and its
// neighbours. Values live in an arena, outside the Go heap, as a
// RAM-backed filesystem keeps them outside the process. store.Dir's own
// cost is measured in the traced replays.
type memStore struct {
	mu    sync.RWMutex
	m     map[string]memEntry
	bytes arena
}

type memEntry struct {
	data []byte
	mod  time.Time
}

func newMemStore() *memStore { return &memStore{m: map[string]memEntry{}} }

func checkKey(key string) error {
	if !store.ValidKey(key) {
		return fmt.Errorf("store: bad key %q", key)
	}
	return nil
}

// Get returns a copy, as reading a file would.
func (s *memStore) Get(key string) ([]byte, error) {
	if err := checkKey(key); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.m[key]
	if !ok {
		return nil, store.ErrNotExist
	}
	return append([]byte(nil), e.data...), nil
}

func (s *memStore) Put(key string, data []byte) error {
	if err := checkKey(key); err != nil {
		return err
	}
	stored, err := s.bytes.copyIn(data)
	if err != nil {
		return err
	}
	e := memEntry{data: stored, mod: time.Now()}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = e
	return nil
}

func (s *memStore) Delete(key string) error {
	if err := checkKey(key); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, key)
	return nil
}

func (s *memStore) Touch(key string) error {
	if err := checkKey(key); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[key]
	if !ok {
		return store.ErrNotExist
	}
	e.mod = time.Now()
	s.m[key] = e
	return nil
}

func (s *memStore) List() ([]store.Entry, error) {
	s.mu.RLock()
	out := make([]store.Entry, 0, len(s.m))
	for k, e := range s.m {
		out = append(out, store.Entry{Key: k, Size: int64(len(e.data)), ModTime: e.mod})
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// free releases the stored values; the store must not be used afterwards.
func (s *memStore) free() { s.bytes.free() }
