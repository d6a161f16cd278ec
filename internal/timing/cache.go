package timing

import "fmt"

// plruTree implements tree-based pseudo-LRU replacement for power-of-two
// associativities up to 16 ways. The tree is stored as a bit field: bit
// i is the direction bit of internal node i (0 = left subtree is older).
type plruTree uint16

// victim returns the way the PLRU tree currently designates for
// eviction (following the direction bits), for a tree over `ways` ways.
func (t plruTree) victim(ways int) int {
	node := 0
	idx := 0
	for levelWays := ways; levelWays > 1; levelWays /= 2 {
		bit := (t >> node) & 1
		if bit == 0 {
			// Left subtree is the older one; descend left.
			node = 2*node + 1
		} else {
			idx += levelWays / 2
			node = 2*node + 2
		}
	}
	return idx
}

// touch updates the tree so `way` becomes most-recently used.
func (t *plruTree) touch(way, ways int) {
	node := 0
	lo, hi := 0, ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if way < mid {
			// Accessed left: point victim bit at right subtree.
			*t |= 1 << node
			node = 2*node + 1
			hi = mid
		} else {
			*t &^= 1 << node
			node = 2*node + 2
			lo = mid
		}
	}
}

type cacheLine struct {
	tag   uint32
	valid bool
}

// CacheStats counts accesses and misses, split by owner.
type CacheStats struct {
	Accesses [NumOwners]uint64 `json:"accesses"`
	Misses   [NumOwners]uint64 `json:"misses"`
}

// MissRate returns the total miss rate across owners.
func (s *CacheStats) MissRate() float64 {
	a := s.Accesses[OwnerApp] + s.Accesses[OwnerTOL]
	if a == 0 {
		return 0
	}
	return float64(s.Misses[OwnerApp]+s.Misses[OwnerTOL]) / float64(a)
}

// OwnerMissRate returns the miss rate of one owner's accesses.
func (s *CacheStats) OwnerMissRate(o Owner) float64 {
	if s.Accesses[o] == 0 {
		return 0
	}
	return float64(s.Misses[o]) / float64(s.Accesses[o])
}

// Cache is a set-associative cache with tree-PLRU replacement. It
// tracks line presence only (no data), which is all the timing model
// needs.
type Cache struct {
	cfg       CacheConfig
	sets      int
	blockBits uint
	setMask   uint32
	lines     []cacheLine // sets*assoc, way-major within set
	plru      []plruTree
	Stats     CacheStats
}

// NewCache builds a cache from its configuration. Size, block size and
// associativity must be powers of two with at least one set.
func NewCache(cfg CacheConfig) *Cache {
	sets, err := cfg.sets()
	if err != nil {
		panic(fmt.Sprintf("timing: invalid cache geometry %+v: %v", cfg, err))
	}
	blockBits := uint(0)
	for 1<<blockBits < cfg.BlockSize {
		blockBits++
	}
	return &Cache{
		cfg:       cfg,
		sets:      sets,
		blockBits: blockBits,
		setMask:   uint32(sets - 1),
		lines:     make([]cacheLine, sets*cfg.Assoc),
		plru:      make([]plruTree, sets),
	}
}

// Lookup probes the cache without modifying state and reports a hit.
func (c *Cache) Lookup(addr uint32) bool {
	tag := addr >> c.blockBits
	set := int(tag & c.setMask)
	base := set * c.cfg.Assoc
	for w := 0; w < c.cfg.Assoc; w++ {
		if l := &c.lines[base+w]; l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Access performs an access for the given owner: on a hit the PLRU
// state is refreshed; on a miss the PLRU victim is replaced. It returns
// whether the access hit.
func (c *Cache) Access(addr uint32, owner Owner) bool {
	tag := addr >> c.blockBits
	set := int(tag & c.setMask)
	base := set * c.cfg.Assoc
	c.Stats.Accesses[owner]++
	for w := 0; w < c.cfg.Assoc; w++ {
		if l := &c.lines[base+w]; l.valid && l.tag == tag {
			c.plru[set].touch(w, c.cfg.Assoc)
			return true
		}
	}
	c.Stats.Misses[owner]++
	c.fill(tag, set, base)
	return false
}

// Insert fills a line without counting an access (used by prefetches).
func (c *Cache) Insert(addr uint32) {
	tag := addr >> c.blockBits
	set := int(tag & c.setMask)
	c.fill(tag, set, set*c.cfg.Assoc)
}

func (c *Cache) fill(tag uint32, set, base int) {
	// Prefer an invalid way before evicting.
	for w := 0; w < c.cfg.Assoc; w++ {
		if !c.lines[base+w].valid {
			c.lines[base+w] = cacheLine{tag: tag, valid: true}
			c.plru[set].touch(w, c.cfg.Assoc)
			return
		}
	}
	w := c.plru[set].victim(c.cfg.Assoc)
	c.lines[base+w] = cacheLine{tag: tag, valid: true}
	c.plru[set].touch(w, c.cfg.Assoc)
}

// BlockAddr returns the block-aligned address containing addr.
func (c *Cache) BlockAddr(addr uint32) uint32 {
	return addr &^ (uint32(c.cfg.BlockSize) - 1)
}

// BlockSize returns the configured block size in bytes.
func (c *Cache) BlockSize() int { return c.cfg.BlockSize }

// HitLatency returns the configured hit latency in cycles.
func (c *Cache) HitLatency() int { return c.cfg.HitLatency }

// Reset invalidates all lines and clears statistics.
func (c *Cache) Reset() {
	for i := range c.lines {
		c.lines[i] = cacheLine{}
	}
	for i := range c.plru {
		c.plru[i] = 0
	}
	c.Stats = CacheStats{}
}
