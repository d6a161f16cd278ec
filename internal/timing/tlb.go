package timing

import (
	"fmt"

	"repro/internal/mem"
)

// TLB is one level of the data translation lookaside buffer. The
// instruction path has no TLB because TOL works with physical
// addresses, matching the paper.
type TLB struct {
	cfg     TLBConfig
	sets    int
	setMask uint32
	lines   []cacheLine
	plru    []plruTree
	Stats   CacheStats
}

// NewTLB builds a TLB level.
func NewTLB(cfg TLBConfig) *TLB {
	sets, err := cfg.sets()
	if err != nil {
		panic(fmt.Sprintf("timing: invalid TLB geometry %+v: %v", cfg, err))
	}
	return &TLB{
		cfg:     cfg,
		sets:    sets,
		setMask: uint32(sets - 1),
		lines:   make([]cacheLine, sets*cfg.Assoc),
		plru:    make([]plruTree, sets),
	}
}

// Access looks up the page of addr, filling on miss. Returns hit.
func (t *TLB) Access(addr uint32, owner Owner) bool {
	page := addr / mem.PageSize
	set := int(page & t.setMask)
	base := set * t.cfg.Assoc
	t.Stats.Accesses[owner]++
	for w := 0; w < t.cfg.Assoc; w++ {
		if l := &t.lines[base+w]; l.valid && l.tag == page {
			t.plru[set].touch(w, t.cfg.Assoc)
			return true
		}
	}
	t.Stats.Misses[owner]++
	for w := 0; w < t.cfg.Assoc; w++ {
		if !t.lines[base+w].valid {
			t.lines[base+w] = cacheLine{tag: page, valid: true}
			t.plru[set].touch(w, t.cfg.Assoc)
			return false
		}
	}
	w := t.plru[set].victim(t.cfg.Assoc)
	t.lines[base+w] = cacheLine{tag: page, valid: true}
	t.plru[set].touch(w, t.cfg.Assoc)
	return false
}

// HitLatency returns the configured hit latency.
func (t *TLB) HitLatency() int { return t.cfg.HitLatency }

// Reset invalidates all entries and clears statistics.
func (t *TLB) Reset() {
	for i := range t.lines {
		t.lines[i] = cacheLine{}
	}
	for i := range t.plru {
		t.plru[i] = 0
	}
	t.Stats = CacheStats{}
}
