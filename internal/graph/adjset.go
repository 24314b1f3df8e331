package graph

import "math/bits"

// AdjSet is the reduced adjacency list of one vertex: an ordered set
// with order statistics. It supports the three operations the
// edge-switch algorithms need: membership test (parallel-edge
// detection), insert/delete (applying a switch), and k-th smallest
// selection (uniform random neighbour pick).
//
// It is a blocked sorted array. An entry is one packed uint32,
// v<<1 | original; Vertex is a non-negative int32, so packed order is key
// order. Entries live in an ordered list of sorted blocks of at most
// blockMax entries:
//   - a set that fits in one block grows it by doubling from minBlock;
//   - a full blockMax block splits into halves;
//   - a delete that leaves a block and a neighbour together holding at
//     most blockMax/2 entries merges them, so every two adjacent blocks
//     hold more than blockMax/2 and d entries span at most
//     4d/blockMax + 1 blocks.
//
// Contains, Original, Insert and Delete binary-search the blocks' last
// keys and then one block, and Insert/Delete shift at most blockMax
// entries; Kth walks the block lengths. Entries hold no pointers, so the
// garbage collector never scans them.
//
// Each entry carries an "original" flag used for visit-rate accounting:
// edges present in the input graph are original; edges created by a switch
// are modified (§3.1 of the paper).
//
// The prio/prios arguments of the insert and bulk-build methods are
// unused. They steered the shape of the pointer treap this set replaced
// and stay in the signatures, with callers drawing them from the run RNG
// at the same points as before, so every seeded output is unchanged.
type AdjSet struct {
	blocks [][]uint32 // non-empty sorted blocks in key order; none when empty
	n      int32
	// origs counts entries whose original flag is set, maintained by
	// Insert/Delete so Graph.Reindex can rebuild the graph-level original
	// counter in O(1) per vertex after a sharded bulk build.
	origs int32
}

const (
	// blockMax is the entry capacity of a full block, a power of two.
	blockMax = 512
	// minBlock is the capacity of a one-block set's first block.
	minBlock = 4
	// blockClasses counts the block capacities minBlock…blockMax.
	blockClasses = 8
	// buildFill is the most entries a bulk load puts in one block of a
	// multi-block set, leaving room so the inserts that follow a load do
	// not split every block at once.
	buildFill = 3 * blockMax / 4
)

func pack(v Vertex, original bool) uint32 {
	e := uint32(v) << 1
	if original {
		e |= 1
	}
	return e
}

func unpack(e uint32) (Vertex, bool) { return Vertex(e >> 1), e&1 != 0 }

// capFor returns the smallest block capacity, a power of two in
// [minBlock, blockMax], that holds n ≤ blockMax entries.
func capFor(n int) int {
	if n <= minBlock {
		return minBlock
	}
	return 1 << bits.Len(uint(n-1))
}

// NodeArena recycles adjacency blocks. The parallel engine churns one
// delete+insert pair per edge switch and curveball drains and rebuilds
// whole lists every round; an arena keeps a free list of blocks per
// capacity class, so deletes in one vertex's set feed inserts in
// another's, and carves new blocks from slabs. It is owned by a single
// goroutine (one per rank) and shared across all of that rank's AdjSets.
// The zero value is ready to use, and a nil *NodeArena degrades to plain
// allocation, which is what the arena-less AdjSet methods pass.
//
//es:arena
type NodeArena struct {
	free [blockClasses][][]uint32 // recycled blocks by capacity class
	slab []uint32                 // uncarved rest of the current block slab
	// heads is the uncarved rest of a slab of one-block lists: most sets
	// fit one block, and a bulk load would otherwise pay one allocation
	// per vertex for its block list.
	heads [][]uint32
}

// arenaSlab is the entries-per-allocation granularity of a free-list
// miss. Bulk loads (the distributed-generation bootstrap fills every
// owned list into an initially empty arena) would otherwise pay one heap
// allocation and one GC object per list; a slab turns that into one
// allocation per 64 KiB of entries with better locality.
const arenaSlab = 1 << 14

// block returns an empty block of capacity c, a power of two in
// [minBlock, blockMax].
func (a *NodeArena) block(c int) []uint32 {
	if a == nil {
		return make([]uint32, 0, c)
	}
	k := bits.Len(uint(c)) - bits.Len(minBlock)
	if f := a.free[k]; len(f) > 0 {
		b := f[len(f)-1]
		f[len(f)-1] = nil
		a.free[k] = f[:len(f)-1]
		return b
	}
	if len(a.slab) < c {
		a.slab = make([]uint32, arenaSlab)
	}
	b := a.slab[:0:c]
	a.slab = a.slab[c:]
	return b
}

// put recycles block b; a nil arena leaves it to the GC.
func (a *NodeArena) put(b []uint32) {
	if a == nil {
		return
	}
	k := bits.Len(uint(cap(b))) - bits.Len(minBlock)
	a.free[k] = append(a.free[k], b[:0])
}

// insertBlock inserts b at position i of the block list bs.
func (a *NodeArena) insertBlock(bs [][]uint32, i int, b []uint32) [][]uint32 {
	if cap(bs) == 0 && a != nil {
		if len(a.heads) == 0 {
			a.heads = make([][]uint32, arenaSlab/16)
		}
		bs, a.heads = a.heads[:0:1], a.heads[1:]
	}
	bs = append(bs, nil)
	copy(bs[i+1:], bs[i:])
	bs[i] = b
	return bs
}

// Len reports the number of entries in the set.
func (s *AdjSet) Len() int { return int(s.n) }

// Originals reports how many entries still carry the original flag.
func (s *AdjSet) Originals() int { return int(s.origs) }

// lowerBound returns the index of the first entry of b not below x.
func lowerBound(b []uint32, x uint32) int {
	lo, hi := 0, len(b)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// find locates v: the block bi that holds it, or would (the first block
// whose last key is not below v, else the last block), its position i
// there, and whether it is present. An empty set yields (0, 0, false).
func (s *AdjSet) find(v Vertex) (bi, i int, found bool) {
	if len(s.blocks) == 0 {
		return 0, 0, false
	}
	x := uint32(v) << 1
	lo, hi := 0, len(s.blocks)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b := s.blocks[mid]; b[len(b)-1] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	b := s.blocks[lo]
	i = lowerBound(b, x)
	return lo, i, i < len(b) && b[i]>>1 == uint32(v)
}

// Contains reports whether v is in the set.
func (s *AdjSet) Contains(v Vertex) bool {
	_, _, found := s.find(v)
	return found
}

// Original reports whether v is present and still flagged as an original
// (unswitched) edge endpoint.
func (s *AdjSet) Original(v Vertex) bool {
	bi, i, found := s.find(v)
	return found && s.blocks[bi][i]&1 != 0
}

// Kth returns the k-th smallest entry (0-based) and its original flag.
// It panics if k is out of range; callers sample k uniformly in [0, Len()).
func (s *AdjSet) Kth(k int) (Vertex, bool) {
	if k >= 0 {
		for _, b := range s.blocks {
			if k < len(b) {
				return unpack(b[k])
			}
			k -= len(b)
		}
	}
	panic("graph: AdjSet.Kth index out of range")
}

// Insert adds v with the given original flag; prio is unused (see
// AdjSet). It reports whether the value was newly inserted (false means
// it was already present; the flag is left unchanged in that case, since
// a duplicate insert indicates a parallel edge the caller should have
// rejected).
func (s *AdjSet) Insert(v Vertex, original bool, prio uint32) bool {
	return s.InsertArena(nil, v, original, prio)
}

// InsertArena is Insert drawing blocks from a (the hot path of the
// parallel engine); a nil arena allocates.
func (s *AdjSet) InsertArena(a *NodeArena, v Vertex, original bool, _ uint32) bool {
	bi, i, found := s.find(v)
	if found {
		return false
	}
	if len(s.blocks) == 0 {
		s.blocks = a.insertBlock(s.blocks, 0, a.block(minBlock))
	}
	b := s.blocks[bi]
	switch {
	case len(b) < cap(b):
	case cap(b) < blockMax: // a one-block set grows by doubling
		nb := a.block(2 * cap(b))[:len(b)]
		copy(nb, b)
		a.put(b)
		b = nb
	default: // a full block splits into halves
		h := len(b) / 2
		nb := a.block(blockMax)[:len(b)-h]
		copy(nb, b[h:])
		b = b[:h]
		s.blocks[bi] = b
		s.blocks = a.insertBlock(s.blocks, bi+1, nb)
		if i > h {
			bi, i, b = bi+1, i-h, nb
		}
	}
	b = b[:len(b)+1]
	copy(b[i+1:], b[i:])
	b[i] = pack(v, original)
	s.blocks[bi] = b
	s.n++
	if original {
		s.origs++
	}
	return true
}

// BuildSorted fills an empty set in one O(len) pass from strictly
// ascending keys, drawing blocks from a (nil allocates). The result is
// the set one-at-a-time insertion would give; prios is unused (see
// AdjSet). Every entry gets the original flag.
func (s *AdjSet) BuildSorted(a *NodeArena, keys []Vertex, prios []uint32, original bool) {
	s.buildSorted(a, keys, nil, original)
}

// BuildSortedFlagged is BuildSorted with a per-entry original flag:
// origs[i] is entry i's flag. This is the snapshot-restore load path,
// where a partition's entries carry the flags they had when the
// checkpoint was taken rather than one uniform load-time value.
func (s *AdjSet) BuildSortedFlagged(a *NodeArena, keys []Vertex, prios []uint32, origs []bool) {
	if len(origs) != len(keys) {
		panic("graph: BuildSortedFlagged flag count != key count")
	}
	s.buildSorted(a, keys, origs, false)
}

// buildSorted is the shared bulk load: flags[i] gives entry i's original
// flag when flags is non-nil, uniform otherwise. A list that fits one
// block gets one of the smallest capacity that holds it; a longer one is
// spread evenly over full-capacity blocks of at most buildFill entries.
func (s *AdjSet) buildSorted(a *NodeArena, keys []Vertex, flags []bool, uniform bool) {
	d := len(keys)
	if d == 0 {
		return
	}
	if s.n != 0 {
		panic("graph: BuildSorted on a non-empty AdjSet")
	}
	for i := 1; i < d; i++ {
		if keys[i-1] >= keys[i] {
			panic("graph: BuildSorted keys not strictly ascending")
		}
	}
	nb, c := 1, capFor(min(d, blockMax))
	if d > blockMax {
		nb, c = (d+buildFill-1)/buildFill, blockMax
	}
	for j := 0; j < nb; j++ {
		lo, hi := j*d/nb, (j+1)*d/nb
		b := a.block(c)[:hi-lo]
		for i := range b {
			orig := uniform
			if flags != nil {
				orig = flags[lo+i]
			}
			b[i] = pack(keys[lo+i], orig)
			s.origs += int32(b[i] & 1)
		}
		s.blocks = a.insertBlock(s.blocks, j, b)
	}
	s.n = int32(d)
}

// Delete removes v, reporting whether it was present and whether the
// removed entry was an original edge.
func (s *AdjSet) Delete(v Vertex) (found, original bool) {
	return s.DeleteArena(nil, v)
}

// DeleteArena is Delete returning a block the delete empties or merges
// away to a for reuse by a later InsertArena; a nil arena leaves it to
// the GC.
func (s *AdjSet) DeleteArena(a *NodeArena, v Vertex) (found, original bool) {
	bi, i, found := s.find(v)
	if !found {
		return false, false
	}
	b := s.blocks[bi]
	original = b[i]&1 != 0
	copy(b[i:], b[i+1:])
	b = b[:len(b)-1]
	s.blocks[bi] = b
	s.n--
	if original {
		s.origs--
	}
	empty := len(b) == 0
	switch {
	case bi+1 < len(s.blocks) && (empty || len(b)+len(s.blocks[bi+1]) <= blockMax/2):
		s.mergeNext(a, bi)
	case bi > 0 && (empty || len(b)+len(s.blocks[bi-1]) <= blockMax/2):
		s.mergeNext(a, bi-1)
	case empty:
		a.put(b)
		s.blocks[0] = nil
		s.blocks = s.blocks[:0]
	}
	return true, original
}

// mergeNext appends block j+1 to block j and drops it from the list.
// Only a multi-block set merges, so block j has capacity blockMax, and
// the caller guarantees the pair fits.
func (s *AdjSet) mergeNext(a *NodeArena, j int) {
	b, nxt := s.blocks[j], s.blocks[j+1]
	m := len(b)
	b = b[:m+len(nxt)]
	copy(b[m:], nxt)
	s.blocks[j] = b
	a.put(nxt)
	last := len(s.blocks) - 1
	copy(s.blocks[j+1:], s.blocks[j+2:])
	s.blocks[last] = nil
	s.blocks = s.blocks[:last]
}

// DrainArena empties the set, invoking fn for each entry in ascending
// key order and returning every block to a (nil leaves them to the GC).
// This is the curveball engine's per-round bulk extraction, O(d).
func (s *AdjSet) DrainArena(a *NodeArena, fn func(v Vertex, original bool)) {
	for j, b := range s.blocks {
		for _, e := range b {
			fn(unpack(e))
		}
		a.put(b)
		s.blocks[j] = nil
	}
	s.blocks = s.blocks[:0]
	s.n, s.origs = 0, 0
}

// Walk calls fn for each entry in ascending key order. Returning false
// from fn stops the walk early.
func (s *AdjSet) Walk(fn func(v Vertex, original bool) bool) {
	for _, b := range s.blocks {
		for _, e := range b {
			if !fn(unpack(e)) {
				return
			}
		}
	}
}

// Keys returns all entries in ascending order. Intended for tests and
// small-scale inspection.
func (s *AdjSet) Keys() []Vertex {
	out := make([]Vertex, 0, s.Len())
	s.Walk(func(v Vertex, _ bool) bool {
		out = append(out, v)
		return true
	})
	return out
}
