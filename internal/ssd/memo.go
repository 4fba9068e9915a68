package ssd

import "sync"

// onceMemo memoizes one value per key for the life of the process, the
// device layer's idiom for sharing set-up work across a sweep's cells: the
// first caller of a key builds its value, later callers of that key wait
// for that single build, and distinct keys build concurrently.
type onceMemo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*onceEntry[V]
}

type onceEntry[V any] struct {
	once sync.Once
	v    V
	err  error
}

// get returns key's value, calling build if no caller has yet.
func (m *onceMemo[K, V]) get(key K, build func() (V, error)) (V, error) {
	m.mu.Lock()
	e, ok := m.m[key]
	if !ok {
		if m.m == nil {
			m.m = make(map[K]*onceEntry[V])
		}
		e = &onceEntry[V]{}
		m.m[key] = e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.v, e.err = build() })
	return e.v, e.err
}
