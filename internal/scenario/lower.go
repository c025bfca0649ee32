package scenario

import (
	"container/list"
	"sync"

	"prunesim/internal/core"
	"prunesim/internal/pet"
)

// Bounds on an Engine's PET-matrix cache. A matrix is a fixed input of a
// platform spec, but its key carries any uint64 seed and any PET override a
// request names, so a long-lived engine (prunesimd's) must not keep every
// matrix it has built. 64 entries hold every matrix the figure drivers and
// the shipped scenarios use many times over. At the bin-width floor a
// default-shape matrix retains about 437 KB, so 32 MiB holds 64 of them
// too; at the paper's parameters a matrix retains about 17 KB, and the
// entry cap binds first.
const (
	maxCachedMatrices    = 64
	maxCachedMatrixBytes = 32 << 20
)

// matrixKey identifies one generated PET matrix.
type matrixKey struct {
	profile string
	params  pet.Params
}

// matrixEntry is one cached matrix with its retained size.
type matrixEntry struct {
	key   matrixKey
	m     *pet.Matrix
	bytes int64
}

// matrixCache is an LRU cache of generated PET matrices, bounded by entry
// count and by retained bytes (pet.Matrix.RetainedBytes). Matrices are
// immutable, so every caller asking for a key shares one. The zero value is
// empty and ready to use.
type matrixCache struct {
	mu    sync.Mutex
	elems map[matrixKey]*list.Element // of *matrixEntry
	lru   list.List                   // front = most recently used
	bytes int64
}

// get returns the matrix of a defaulted platform spec, building it on a
// miss. The build runs outside the lock, so a slow build never stalls a
// lookup; two concurrent misses on one key may both build, and the first
// to finish is the one both get.
func (c *matrixCache) get(p Platform) (*pet.Matrix, error) {
	key := matrixKey{profile: p.Profile, params: p.PETParams()}
	c.mu.Lock()
	m := c.lookup(key)
	c.mu.Unlock()
	if m != nil {
		return m, nil
	}
	m, err := p.BuildMatrix()
	if err != nil {
		return nil, err
	}
	size := m.RetainedBytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	if cached := c.lookup(key); cached != nil {
		return cached, nil
	}
	if size > maxCachedMatrixBytes {
		return m, nil // caching it would evict everything and still break the cap
	}
	for c.lru.Len() >= maxCachedMatrices || c.bytes+size > maxCachedMatrixBytes {
		old := c.lru.Remove(c.lru.Back()).(*matrixEntry)
		delete(c.elems, old.key)
		c.bytes -= old.bytes
	}
	if c.elems == nil {
		c.elems = make(map[matrixKey]*list.Element)
	}
	c.elems[key] = c.lru.PushFront(&matrixEntry{key: key, m: m, bytes: size})
	c.bytes += size
	return m, nil
}

// lookup returns key's matrix and marks it most recently used, or nil.
// The caller holds c.mu.
func (c *matrixCache) lookup(key matrixKey) *pet.Matrix {
	el, ok := c.elems[key]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	return el.Value.(*matrixEntry).m
}

// MatrixCacheStats reports an engine's PET-matrix cache: what it holds and
// the caps that bound it.
type MatrixCacheStats struct {
	Entries, MaxEntries int
	Bytes, MaxBytes     int64
}

// MatrixCacheStats reports the engine's PET-matrix cache.
func (e *Engine) MatrixCacheStats() MatrixCacheStats {
	c := &e.matrices
	c.mu.Lock()
	defer c.mu.Unlock()
	return MatrixCacheStats{Entries: c.lru.Len(), MaxEntries: maxCachedMatrices, Bytes: c.bytes, MaxBytes: maxCachedMatrixBytes}
}

// Lowered is a platform and prune spec lowered onto what a simulation or
// an admission session runs on.
type Lowered struct {
	// Matrix is the cached PET matrix, shared read-only.
	Matrix *pet.Matrix
	// MachineTypes assigns each machine its PET column; the slice is the
	// caller's.
	MachineTypes []int
	// Prune is the pruner configuration, sized to Matrix.
	Prune core.Config
}

// Lower turns a defaulted, valid platform spec (WithDefaults, then
// Validate) and a defaulted prune spec into the PET matrix, machine types
// and pruner configuration they describe. The matrix comes from the
// engine's cache, so a repeated spec costs a map lookup. Validate accepts
// only platforms whose matrix builds, so an error comes from the prune
// spec.
func (e *Engine) Lower(p Platform, pr Prune) (Lowered, error) {
	m, err := e.matrices.get(p)
	if err != nil {
		return Lowered{}, err
	}
	prune, err := pr.CoreConfig(m.NumTaskTypes())
	if err != nil {
		return Lowered{}, err
	}
	return Lowered{Matrix: m, MachineTypes: p.MachineTypes(m), Prune: prune}, nil
}
