package graph

import (
	"encoding/binary"
	"fmt"
)

// Compact adjacency serialization shared by checkpoints and the tiered
// edge store's base segments: one reduced adjacency list is encoded as a
// uvarint entry count followed by one uvarint per entry,
// (gap << 1) | originalFlag, where gap is the key's distance from its
// predecessor (the owner vertex for the first entry). Reduced
// adjacencies hold strictly ascending neighbours > owner, so every gap
// is >= 1 and small keys cost one byte; a partition round-trips in a
// fraction of the 9-byte-per-edge wire records.

// AppendAdjSet appends the encoding of s (owned by owner) to buf and
// returns the extended slice.
func (s *AdjSet) AppendAdjSet(buf []byte, owner Vertex) []byte {
	buf = binary.AppendUvarint(buf, uint64(s.Len()))
	prev := uint32(owner) << 1
	for _, b := range s.blocks {
		for _, e := range b {
			// Packed entries differ by gap<<1 in their key bits, and the
			// flag bit rides along: (e - prev&^1) is (gap<<1)|orig.
			buf = binary.AppendUvarint(buf, uint64(e-prev&^1))
			prev = e
		}
	}
	return buf
}

// AppendEmptyAdjSet appends the encoding of an empty adjacency list
// (a single zero-count uvarint) — the filler the tiered store's segment
// writer emits for owned vertices with no reduced neighbours.
func AppendEmptyAdjSet(buf []byte) []byte {
	return append(buf, 0)
}

// AppendSortedAdj appends the encoding of a strictly ascending key list
// owned by owner, every entry sharing one original flag — the tiered
// store's streaming bulk-load path, which encodes partitions straight to
// disk without materializing sets.
func AppendSortedAdj(buf []byte, owner Vertex, keys []Vertex, orig bool) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	prev := owner
	for _, v := range keys {
		g := uint64(v-prev) << 1
		if orig {
			g |= 1
		}
		buf = binary.AppendUvarint(buf, g)
		prev = v
	}
	return buf
}

// AppendSortedAdjFlagged is AppendSortedAdj with per-entry original
// flags.
func AppendSortedAdjFlagged(buf []byte, owner Vertex, keys []Vertex, origs []bool) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	prev := owner
	for i, v := range keys {
		g := uint64(v-prev) << 1
		if origs[i] {
			g |= 1
		}
		buf = binary.AppendUvarint(buf, g)
		prev = v
	}
	return buf
}

// DecodeAdjSet decodes one adjacency list encoded by AppendAdjSet from
// the front of data, appending the keys and original flags to the given
// scratch slices (pass them back in across slots to amortize growth).
// It returns the filled slices and the remaining bytes. Corrupt input
// (truncation, zero gaps, keys escaping the int32 vertex range) is an
// error, never a panic or a silent wraparound.
func DecodeAdjSet(data []byte, owner Vertex, keys []Vertex, origs []bool) ([]Vertex, []bool, []byte, error) {
	rest, err := WalkAdjSetBytes(data, owner, func(v Vertex, orig bool) bool {
		keys = append(keys, v)
		origs = append(origs, orig)
		return true
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return keys, origs, rest, nil
}

// AdjSetBytesLen reads the entry count of one encoded adjacency list
// without decoding its entries — the tiered store's Len fast path over a
// base-segment slice.
func AdjSetBytesLen(data []byte) (int, error) {
	cnt, n := binary.Uvarint(data)
	if n <= 0 || cnt > uint64(maxVertices) {
		return 0, fmt.Errorf("graph: corrupt adjacency count")
	}
	return int(cnt), nil
}

// WalkAdjSetBytes walks one encoded adjacency list in place, calling fn
// for each (key, original) entry in ascending order; fn returning false
// stops the walk early (the remaining entries are still validated and
// skipped). It returns the bytes following the list. This is the
// streaming read path over the tiered store's mmap'd base segments —
// nothing is materialized.
func WalkAdjSetBytes(data []byte, owner Vertex, fn func(v Vertex, orig bool) bool) ([]byte, error) {
	cnt, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("graph: truncated adjacency count for vertex %d", owner)
	}
	data = data[n:]
	prev := owner
	walking := true
	for i := uint64(0); i < cnt; i++ {
		g, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("graph: truncated adjacency entry %d of vertex %d", i, owner)
		}
		data = data[n:]
		gap := g >> 1
		if gap < 1 {
			return nil, fmt.Errorf("graph: non-ascending adjacency entry %d of vertex %d", i, owner)
		}
		if gap > uint64(maxVertices) || int64(prev)+int64(gap) > int64(maxVertices) {
			return nil, fmt.Errorf("graph: adjacency entry %d of vertex %d escapes the vertex range", i, owner)
		}
		prev += Vertex(gap)
		if walking {
			walking = fn(prev, g&1 == 1)
		}
	}
	return data, nil
}
