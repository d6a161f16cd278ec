package timing

import "fmt"

// Gshare branch predictor plus branch target buffer, per Table I
// (history register of 12 bits). Branch history is shared between TOL
// and the application, which is exactly the cross-pollution mechanism
// the paper's interaction study measures.

// BranchStats counts branch predictions and mispredictions per owner.
type BranchStats struct {
	Branches    [NumOwners]uint64 `json:"branches"`
	Mispredicts [NumOwners]uint64 `json:"mispredicts"`
}

// MispredictRate returns the overall misprediction rate.
func (s *BranchStats) MispredictRate() float64 {
	b := s.Branches[OwnerApp] + s.Branches[OwnerTOL]
	if b == 0 {
		return 0
	}
	return float64(s.Mispredicts[OwnerApp]+s.Mispredicts[OwnerTOL]) / float64(b)
}

// OwnerMispredictRate returns the misprediction rate of one owner.
func (s *BranchStats) OwnerMispredictRate(o Owner) float64 {
	if s.Branches[o] == 0 {
		return 0
	}
	return float64(s.Mispredicts[o]) / float64(s.Branches[o])
}

// Predictor combines a Gshare direction predictor with a set-associative
// BTB for targets.
type Predictor struct {
	historyBits uint
	historyMask uint32
	history     uint32
	counters    []uint8 // 2-bit saturating counters

	btbSets    int
	btbAssoc   int
	btbSetMask uint32
	btbTags    []cacheLine
	btbTargets []uint32
	btbPLRU    []plruTree

	Stats BranchStats
}

// NewPredictor builds the predictor from the configuration.
func NewPredictor(cfg *Config) *Predictor {
	bits := uint(cfg.BPHistoryBits)
	sets, err := tableSets(cfg.BTBEntries, cfg.BTBAssoc)
	if err != nil {
		panic(fmt.Sprintf("timing: invalid BTB geometry: %v", err))
	}
	return &Predictor{
		historyBits: bits,
		historyMask: 1<<bits - 1,
		counters:    make([]uint8, 1<<bits),
		btbSets:     sets,
		btbAssoc:    cfg.BTBAssoc,
		btbSetMask:  uint32(sets - 1),
		btbTags:     make([]cacheLine, cfg.BTBEntries),
		btbTargets:  make([]uint32, cfg.BTBEntries),
		btbPLRU:     make([]plruTree, sets),
	}
}

func (p *Predictor) gshareIndex(pc uint32) uint32 {
	return ((pc >> 2) ^ p.history) & p.historyMask
}

// PredictDirection returns the predicted taken/not-taken for a
// conditional branch at pc.
func (p *Predictor) PredictDirection(pc uint32) bool {
	return p.counters[p.gshareIndex(pc)] >= 2
}

// PredictTarget returns the BTB target for pc and whether the BTB hit.
func (p *Predictor) PredictTarget(pc uint32) (uint32, bool) {
	key := pc >> 2
	set := int(key & p.btbSetMask)
	base := set * p.btbAssoc
	for w := 0; w < p.btbAssoc; w++ {
		if l := &p.btbTags[base+w]; l.valid && l.tag == key {
			p.btbPLRU[set].touch(w, p.btbAssoc)
			return p.btbTargets[base+w], true
		}
	}
	return 0, false
}

// Update trains the predictor with the actual outcome of a branch.
// isCond selects whether the Gshare direction state is involved;
// unconditional and indirect branches train only the BTB.
func (p *Predictor) Update(pc uint32, isCond, taken bool, target uint32) {
	if isCond {
		idx := p.gshareIndex(pc)
		c := p.counters[idx]
		if taken {
			if c < 3 {
				p.counters[idx] = c + 1
			}
		} else if c > 0 {
			p.counters[idx] = c - 1
		}
		p.history = ((p.history << 1) | b2u32(taken)) & p.historyMask
	}
	if taken {
		p.btbInsert(pc, target)
	}
}

func (p *Predictor) btbInsert(pc, target uint32) {
	key := pc >> 2
	set := int(key & p.btbSetMask)
	base := set * p.btbAssoc
	for w := 0; w < p.btbAssoc; w++ {
		if l := &p.btbTags[base+w]; l.valid && l.tag == key {
			p.btbTargets[base+w] = target
			p.btbPLRU[set].touch(w, p.btbAssoc)
			return
		}
	}
	for w := 0; w < p.btbAssoc; w++ {
		if !p.btbTags[base+w].valid {
			p.btbTags[base+w] = cacheLine{tag: key, valid: true}
			p.btbTargets[base+w] = target
			p.btbPLRU[set].touch(w, p.btbAssoc)
			return
		}
	}
	w := p.btbPLRU[set].victim(p.btbAssoc)
	p.btbTags[base+w] = cacheLine{tag: key, valid: true}
	p.btbTargets[base+w] = target
	p.btbPLRU[set].touch(w, p.btbAssoc)
}

// PredictAndTrain performs the full fetch-time prediction for a branch
// instruction and trains the structures with the actual outcome. It
// returns whether the prediction was correct (direction and, for taken
// branches, target).
func (p *Predictor) PredictAndTrain(d *DynInst) bool {
	owner := d.Owner
	p.Stats.Branches[owner]++

	correct := true
	if d.IsCond {
		predTaken := p.PredictDirection(d.PC)
		if predTaken != d.Taken {
			correct = false
		} else if d.Taken {
			t, hit := p.PredictTarget(d.PC)
			if !hit || t != d.Target {
				correct = false
			}
		}
	} else {
		// Unconditional: direction is known taken; target comes from
		// the BTB (indirect targets can genuinely vary).
		t, hit := p.PredictTarget(d.PC)
		if !hit || t != d.Target {
			correct = false
		}
	}
	p.Update(d.PC, d.IsCond, d.Taken, d.Target)
	if !correct {
		p.Stats.Mispredicts[owner]++
	}
	return correct
}

// Reset clears predictor state and statistics.
func (p *Predictor) Reset() {
	p.history = 0
	for i := range p.counters {
		p.counters[i] = 0
	}
	for i := range p.btbTags {
		p.btbTags[i] = cacheLine{}
		p.btbTargets[i] = 0
	}
	for i := range p.btbPLRU {
		p.btbPLRU[i] = 0
	}
	p.Stats = BranchStats{}
}

func b2u32(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
