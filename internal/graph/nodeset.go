package graph

import "math"

// NodeSet is an epoch-stamped membership set over dense node IDs. Where a
// map[NodeID]bool or a fresh []bool costs an allocation (and, for the bool
// slice, an O(n) clear) per use, a NodeSet is reset by bumping a 32-bit
// epoch: a node is a member iff its stamp equals the current epoch. Reset is
// O(1) in the steady state and the backing array is reused for the lifetime
// of the set, which is what makes the hot-loop membership tests of the
// sampling and extraction paths allocation-free.
//
// The zero value is valid; call Reset before the first Add/Has to size it.
// A NodeSet is not safe for concurrent use.
type NodeSet struct {
	stamp []int32
	epoch int32
	count int
}

// Reset clears the set and ensures capacity for node IDs in [0, n).
// Amortized O(1): it reallocates only when n grows beyond every previous
// Reset, and rewrites the stamps only on epoch wraparound (every 2³¹−1
// resets).
func (s *NodeSet) Reset(n int) {
	if n > len(s.stamp) {
		// No copy: Reset empties the set, and old stamps are all below the
		// post-bump epoch, so they could never read as members anyway.
		s.stamp = make([]int32, n)
	}
	if s.epoch == math.MaxInt32 {
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.epoch = 0
	}
	s.epoch++
	s.count = 0
}

// Add inserts v and reports whether it was newly added.
func (s *NodeSet) Add(v NodeID) bool {
	if s.stamp[v] == s.epoch {
		return false
	}
	s.stamp[v] = s.epoch
	s.count++
	return true
}

// Has reports membership of v.
func (s *NodeSet) Has(v NodeID) bool { return s.stamp[v] == s.epoch }

// Remove deletes v and reports whether it was a member.
func (s *NodeSet) Remove(v NodeID) bool {
	if s.stamp[v] != s.epoch {
		return false
	}
	s.stamp[v] = s.epoch - 1
	s.count--
	return true
}

// Len returns the number of members.
func (s *NodeSet) Len() int { return s.count }
