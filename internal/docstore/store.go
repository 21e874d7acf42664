package docstore

import (
	"sort"
	"sync"
)

// Store is a set of named collections. The zero value is not usable;
// construct with NewStore.
type Store struct {
	mu          sync.RWMutex
	collections map[string]*Collection // guarded by mu
	onNew       func(*Collection)      // guarded by mu; durability hook for new collections
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{collections: make(map[string]*Collection)}
}

// Collection returns the named collection, creating it if absent.
func (s *Store) Collection(name string) *Collection {
	s.mu.RLock()
	c, ok := s.collections[name]
	s.mu.RUnlock()
	if ok {
		return c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.collections[name]; ok {
		return c
	}
	c = newCollection(name)
	c.store = s
	if s.onNew != nil {
		s.onNew(c)
	}
	s.collections[name] = c
	return c
}

// attachLogger installs the durability hook on every current and future
// collection. Called once by OpenDurable after replay, before the store is
// shared.
func (s *Store) attachLogger(lg commitLogger) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onNew = func(c *Collection) { c.logger = lg }
	for _, c := range s.collections {
		c.logger = lg
	}
}

// Names lists collection names in sorted order.
func (s *Store) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.collections))
	for n := range s.collections {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
