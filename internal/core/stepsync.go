package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"edgeswitch/internal/graph"
)

// The fused step-boundary exchange: every step boundary needs the
// per-rank edge counts (to rebuild the partner-selection prefix sums),
// the global count of edges still flagged original (for the exact visit
// rate that drives Config.TargetVisitRate and Result.VisitRate), and —
// in sanitized runs — a degree-conservation check. Those used to be
// separate collectives, the last a full O(n) degree-vector allreduce
// that dominated checked runs on large vertex sets. They are now one
// allgather whose payload carries the edge count, the local originals
// count, and a sparse delta vector: only the vertices whose local degree
// changed since the previous exchange, O(ops) entries instead of O(n). A
// valid randomization move relocates degree between ranks but never
// creates or destroys it — edge switches move two endpoints, curveball
// trades reassign whole adjacency entries between the paired vertices —
// so the deltas must cancel exactly when summed across ranks. This is
// what makes the check algorithm-agnostic: it asserts conservation of
// the degree sequence, not any particular mutation shape, and every
// randomizer feeds it through the same takeLocal/insertLocal/drainLocal
// accounting.
//
// Payload layout (one encoding for every run; unchecked runs send k = 0):
//
//	edges int64 | originals int64 | k uint32 | k × (vertex uint32, delta int32)
//
// All fields are little-endian. Deltas are nonzero and sorted strictly
// ascending by vertex, so the payload is deterministic.

// stepHeader is the fixed prefix of a step payload: edges, originals, k.
const stepHeader = 20

// touchSet is a set over [0, size) that remembers its members: a
// membership bitmap plus the member list, so clearing costs O(members)
// rather than O(size). The sanitizer keeps two — the slots written since
// the last scan and the vertices whose degree delta moved.
type touchSet struct {
	bits []uint64
	list []int32
}

func newTouchSet(size int) touchSet {
	return touchSet{bits: make([]uint64, (size+63)/64)}
}

// add inserts i (in range by the caller's contract).
func (s *touchSet) add(i int32) {
	w, b := i>>6, uint64(1)<<(uint(i)&63)
	if s.bits[w]&b == 0 {
		s.bits[w] |= b
		s.list = append(s.list, i) // hotalloc: amortized; the member list grows to the largest per-step touch set once, then is reused
	}
}

// sort orders the member list ascending by rebuilding it from the
// bitmap, whose words already hold the members in order: O(members +
// size/64). A comparison sort is O(members log members) and measured
// slower from about a hundred members up — 20–40× at the thousands a
// step of the contact workload touches.
func (s *touchSet) sort() {
	s.list = s.list[:0]
	for w, word := range s.bits {
		for ; word != 0; word &= word - 1 {
			s.list = append(s.list, int32(w<<6|bits.TrailingZeros64(word)))
		}
	}
}

// reset empties the set.
func (s *touchSet) reset() {
	for _, i := range s.list {
		s.bits[i>>6] = 0
	}
	s.list = s.list[:0]
}

// noteDegree accumulates a local degree change of d on both endpoints
// for the sparse sanitizer delta; a no-op in unchecked runs.
func (e *rankEngine) noteDegree(ed graph.Edge, d int32) {
	if !e.sanitize {
		return
	}
	e.addDelta(ed.U, d)
	e.addDelta(ed.V, d)
}

// addDelta adds d to v's entry of the dense delta vector. An endpoint
// outside [0, n) cannot be indexed; it is skipped here because the slot
// holding it is dirty, so the boundary scan reports it as a range
// violation.
func (e *rankEngine) addDelta(v graph.Vertex, d int32) {
	if uint32(v) >= uint32(e.n) {
		return
	}
	e.touched.add(int32(v))
	e.degDelta[v] += d
}

// markDirty records that slot li was written this step, so the next
// boundary re-verifies it; a no-op in unchecked runs.
func (e *rankEngine) markDirty(li int) {
	if e.sanitize {
		e.dirty.add(int32(li))
	}
}

// resetDeltas zeroes the delta vector over its touched entries and
// empties the touched list.
func (e *rankEngine) resetDeltas() {
	for _, v := range e.touched.list {
		e.degDelta[v] = 0
	}
	e.touched.reset()
}

// stepExchange is the single collective a step boundary costs. It
// returns the per-rank edge counts for the randomizer's prepare and the
// global number of edges still flagged original. In sanitized runs it
// also re-verifies the slots written since the previous boundary (every
// slot after load, restore or a store compaction; see boundaryScan) and
// checks that the gathered degree deltas cancel; any violation is
// reported with the same actionable formatting as the full sanitizer.
// Deltas for the final step are covered by verifyBaseline at the end of
// the run.
func (e *rankEngine) stepExchange() ([]int64, int64, error) {
	if e.sanitize {
		// The deltas describe only the steps since the previous boundary;
		// encodeStep consumes them and the same vector then sums the
		// gathered ones, so it is zeroed on every exit — a caller retrying
		// after an error must not double-count them.
		defer e.resetDeltas()
	}
	parts, err := e.c.Allgather(e.encodeStep())
	if err != nil {
		return nil, 0, err
	}
	var vg violations
	if e.sanitize {
		vg.list = e.boundaryScan()
	}
	if cap(e.stepCounts) < len(parts) {
		e.stepCounts = make([]int64, len(parts))
	}
	counts := e.stepCounts[:len(parts)]
	var total, origs int64
	for rank, pb := range parts {
		sp, err := decodeStepPayload(pb, e.n)
		if err != nil {
			return nil, 0, fmt.Errorf("core: rank %d step exchange: bad payload from rank %d: %w", e.c.Rank(), rank, err)
		}
		counts[rank] = sp.edges
		total += sp.edges
		origs += sp.originals
		if e.sanitize {
			for i := 0; i < sp.k(); i++ {
				v, d := sp.delta(i)
				sum := int64(e.degDelta[v]) + int64(d)
				if sum != int64(int32(sum)) {
					vg.addf(VDegreeDrift, "degree delta of vertex %d overflows across ranks: edge switching must preserve the degree sequence exactly", v)
					continue
				}
				e.touched.add(int32(v))
				e.degDelta[v] = int32(sum)
			}
		}
	}
	if !e.sanitize {
		if total != e.m {
			return nil, 0, fmt.Errorf("core: edge count drifted: %d != %d", total, e.m)
		}
		return counts, origs, nil
	}
	if total != e.m {
		vg.addf(VEdgeCount, "edge count %d != invariant %d: a switch lost or invented an edge", total, e.m)
	}
	e.touched.sort()
	for _, v := range e.touched.list {
		if d := e.degDelta[v]; d != 0 {
			vg.addf(VDegreeDrift, "degree of vertex %d drifted by %+d across ranks: edge switching must preserve the degree sequence exactly", v, d)
		}
	}
	if len(vg.list) > 0 {
		return nil, 0, fmt.Errorf("core: rank %d invariant sanitizer: %s", e.c.Rank(), summarize(vg.list))
	}
	return counts, origs, nil
}

// encodeStep writes this rank's payload into the engine's reused buffer:
// its edge count, its originals count and, in sanitized runs, every
// accumulated nonzero degree delta, which it consumes.
func (e *rankEngine) encodeStep() []byte {
	e.touched.sort()
	e.stepBuf = appendStepPayload(e.stepBuf[:0], e.deg.Total(), e.origLocal, e.touched.list, e.degDelta)
	e.resetDeltas()
	return e.stepBuf
}

// appendStepPayload appends one payload to buf: the counts, then a
// (vertex, delta[vertex]) record for every vertex of verts whose delta
// is nonzero. verts must be strictly ascending.
func appendStepPayload(buf []byte, edges, originals int64, verts []int32, delta []int32) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(edges))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(originals))
	kAt := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, 0)
	k := uint32(0)
	for _, v := range verts {
		if d := delta[v]; d != 0 {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(d))
			k++
		}
	}
	binary.LittleEndian.PutUint32(buf[kAt:], k)
	return buf
}

// stepPayload is one validated step payload; the delta records stay in
// the received bytes and are read in place.
type stepPayload struct {
	edges, originals int64
	recs             []byte // k × 8 bytes
}

func (sp stepPayload) k() int { return len(sp.recs) / 8 }

// delta returns the i-th delta record.
func (sp stepPayload) delta(i int) (graph.Vertex, int32) {
	r := sp.recs[8*i:]
	return graph.Vertex(binary.LittleEndian.Uint32(r)), int32(binary.LittleEndian.Uint32(r[4:]))
}

// decodeStepPayload validates a peer's payload for a graph of n
// vertices. Payloads come off the wire, so nothing the encoder cannot
// produce is accepted: a length that disagrees with k, a vertex outside
// [0, n), vertices not strictly ascending (which includes duplicates),
// or a zero delta.
func decodeStepPayload(pb []byte, n int) (stepPayload, error) {
	if len(pb) < stepHeader {
		return stepPayload{}, fmt.Errorf("truncated step payload (%d bytes)", len(pb))
	}
	k := uint64(binary.LittleEndian.Uint32(pb[16:]))
	if uint64(len(pb)-stepHeader) != 8*k {
		return stepPayload{}, fmt.Errorf("step payload length %d does not match %d deltas", len(pb), k)
	}
	sp := stepPayload{
		edges:     int64(binary.LittleEndian.Uint64(pb[0:])),
		originals: int64(binary.LittleEndian.Uint64(pb[8:])),
		recs:      pb[stepHeader:],
	}
	prev := int64(-1)
	for i := 0; i < sp.k(); i++ {
		v, d := sp.delta(i)
		switch {
		case v < 0 || int64(v) >= int64(n):
			return stepPayload{}, fmt.Errorf("step payload delta %d names vertex %d outside [0,%d)", i, v, n)
		case int64(v) <= prev:
			return stepPayload{}, fmt.Errorf("step payload delta %d: vertex %d does not ascend past %d", i, v, prev)
		case d == 0:
			return stepPayload{}, fmt.Errorf("step payload delta %d: zero delta for vertex %d", i, v)
		}
		prev = int64(v)
	}
	return sp, nil
}
