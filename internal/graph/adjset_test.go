package graph

import (
	"bytes"
	"encoding/binary"
	"sort"
	"testing"
	"testing/quick"

	"edgeswitch/internal/rng"
)

func TestAdjSetBasic(t *testing.T) {
	r := rng.New(1)
	var s AdjSet
	if s.Len() != 0 {
		t.Fatal("new set not empty")
	}
	if !s.Insert(5, true, r.Uint32()) {
		t.Fatal("insert of new key failed")
	}
	if s.Insert(5, false, r.Uint32()) {
		t.Fatal("duplicate insert succeeded")
	}
	if !s.Contains(5) || s.Contains(6) {
		t.Fatal("contains wrong")
	}
	if !s.Original(5) {
		t.Fatal("original flag lost")
	}
	found, orig := s.Delete(5)
	if !found || !orig {
		t.Fatalf("delete = (%v,%v), want (true,true)", found, orig)
	}
	if found, _ := s.Delete(5); found {
		t.Fatal("double delete reported found")
	}
	if s.Len() != 0 {
		t.Fatal("set not empty after delete")
	}
}

func TestAdjSetOrderedWalk(t *testing.T) {
	r := rng.New(2)
	var s AdjSet
	vals := []Vertex{9, 3, 7, 1, 5, 11, 2}
	for _, v := range vals {
		s.Insert(v, true, r.Uint32())
	}
	got := s.Keys()
	want := append([]Vertex(nil), vals...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("len %d want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Keys()[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestAdjSetKth(t *testing.T) {
	r := rng.New(3)
	var s AdjSet
	for _, v := range []Vertex{10, 20, 30, 40, 50} {
		s.Insert(v, true, r.Uint32())
	}
	for k, want := range []Vertex{10, 20, 30, 40, 50} {
		if got, _ := s.Kth(k); got != want {
			t.Fatalf("Kth(%d) = %d, want %d", k, got, want)
		}
	}
}

func TestAdjSetKthPanicsOutOfRange(t *testing.T) {
	var s AdjSet
	s.Insert(1, true, 12345)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Kth(1)
}

func TestAdjSetOriginalFlagPerEntry(t *testing.T) {
	r := rng.New(4)
	var s AdjSet
	s.Insert(1, true, r.Uint32())
	s.Insert(2, false, r.Uint32())
	if !s.Original(1) || s.Original(2) || s.Original(3) {
		t.Fatal("original flags wrong")
	}
	_, orig := s.Kth(1)
	if orig {
		t.Fatal("Kth returned wrong original flag")
	}
}

// TestAdjSetAgainstMap drives the set with random operations and checks
// it against a reference map implementation.
func TestAdjSetAgainstMap(t *testing.T) {
	r := rng.New(5)
	var s AdjSet
	ref := map[Vertex]bool{} // value = original flag
	for i := 0; i < 20000; i++ {
		v := Vertex(r.Intn(500))
		switch r.Intn(3) {
		case 0: // insert
			orig := r.Bool()
			_, exists := ref[v]
			if s.Insert(v, orig, r.Uint32()) == exists {
				t.Fatalf("step %d: insert(%d) disagreed with reference", i, v)
			}
			if !exists {
				ref[v] = orig
			}
		case 1: // delete
			want, exists := ref[v]
			found, orig := s.Delete(v)
			if found != exists || (found && orig != want) {
				t.Fatalf("step %d: delete(%d) = (%v,%v), want (%v,%v)", i, v, found, orig, exists, want)
			}
			delete(ref, v)
		case 2: // query
			if s.Contains(v) != func() bool { _, ok := ref[v]; return ok }() {
				t.Fatalf("step %d: contains(%d) disagreed", i, v)
			}
		}
		if s.Len() != len(ref) {
			t.Fatalf("step %d: len %d != ref %d", i, s.Len(), len(ref))
		}
	}
	// Final ordering check.
	keys := s.Keys()
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatal("final walk out of order")
		}
	}
}

// TestAdjSetKthMatchesSortedOrder is a property test: for any set of
// distinct values, Kth(k) must equal the k-th smallest.
func TestAdjSetKthMatchesSortedOrder(t *testing.T) {
	f := func(raw []uint16, seed uint64) bool {
		r := rng.New(seed)
		var s AdjSet
		uniq := map[Vertex]bool{}
		for _, x := range raw {
			uniq[Vertex(x)] = true
		}
		var want []Vertex
		for v := range uniq {
			want = append(want, v)
			s.Insert(v, true, r.Uint32())
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if s.Len() != len(want) {
			return false
		}
		for k, w := range want {
			if got, _ := s.Kth(k); got != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAdjSetWalkEarlyStop(t *testing.T) {
	r := rng.New(6)
	var s AdjSet
	for v := Vertex(0); v < 100; v++ {
		s.Insert(v, true, r.Uint32())
	}
	visited := 0
	s.Walk(func(v Vertex, _ bool) bool {
		visited++
		return visited < 10
	})
	if visited != 10 {
		t.Fatalf("early stop visited %d, want 10", visited)
	}
}

func BenchmarkAdjSetInsertDelete(b *testing.B) {
	r := rng.New(7)
	var s AdjSet
	for i := 0; i < b.N; i++ {
		v := Vertex(r.Intn(1 << 20))
		if !s.Insert(v, true, r.Uint32()) {
			s.Delete(v)
		}
	}
}

func BenchmarkAdjSetKth(b *testing.B) {
	r := rng.New(8)
	var s AdjSet
	for i := 0; i < 1000; i++ {
		s.Insert(Vertex(i*3), true, r.Uint32())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Kth(r.Intn(1000))
	}
}

// sameSet fails unless a and b hold the same entries: the same Len,
// Originals, Walk sequence and Kth answers.
func sameSet(t *testing.T, a, b *AdjSet) {
	t.Helper()
	if a.Len() != b.Len() || a.Originals() != b.Originals() {
		t.Fatalf("Len/Originals %d/%d vs %d/%d", a.Len(), a.Originals(), b.Len(), b.Originals())
	}
	var wa, wb []uint32
	a.Walk(func(v Vertex, o bool) bool { wa = append(wa, pack(v, o)); return true })
	b.Walk(func(v Vertex, o bool) bool { wb = append(wb, pack(v, o)); return true })
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatalf("Walk entry %d: %#x vs %#x", i, wa[i], wb[i])
		}
		va, oa := a.Kth(i)
		vb, ob := b.Kth(i)
		if va != vb || oa != ob {
			t.Fatalf("Kth(%d): (%d,%v) vs (%d,%v)", i, va, oa, vb, ob)
		}
	}
}

// TestBuildSortedMatchesIncrementalInsert: a bulk load must give the set
// one-at-a-time insertion gives, at sizes below, at and well above one
// block, with uniform and per-entry flags.
func TestBuildSortedMatchesIncrementalInsert(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(40) + 1
		if trial%10 == 0 {
			n = r.Intn(5*blockMax) + 1
		}
		seen := map[Vertex]bool{}
		keys := make([]Vertex, 0, n)
		for len(keys) < n {
			v := Vertex(r.Intn(8 * n))
			if !seen[v] {
				seen[v] = true
				keys = append(keys, v)
			}
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		flags := make([]bool, n)
		for i := range flags {
			flags[i] = r.Bool()
		}

		var inc, bulk, incF, bulkF AdjSet
		var arena NodeArena
		for i, k := range r.Perm(n) {
			inc.Insert(keys[k], true, uint32(i))
			incF.Insert(keys[k], flags[k], uint32(i))
		}
		bulk.BuildSorted(&arena, keys, nil, true)
		bulkF.BuildSortedFlagged(&arena, keys, nil, flags)
		sameSet(t, &inc, &bulk)
		sameSet(t, &incF, &bulkF)
		checkBlocks(t, &bulk)
		checkBlocks(t, &bulkF)
		if bulk.Len() != n || bulk.Originals() != n {
			t.Fatalf("trial %d: Len=%d Originals=%d, want %d", trial, bulk.Len(), bulk.Originals(), n)
		}
	}
}

func TestBuildSortedPanicsOnUnsortedOrNonEmpty(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("unsorted keys", func() {
		var s AdjSet
		s.BuildSorted(nil, []Vertex{3, 2}, []uint32{1, 2}, true)
	})
	expectPanic("duplicate keys", func() {
		var s AdjSet
		s.BuildSorted(nil, []Vertex{2, 2}, []uint32{1, 2}, true)
	})
	expectPanic("non-empty set", func() {
		var s AdjSet
		s.Insert(1, true, 9)
		s.BuildSorted(nil, []Vertex{2}, []uint32{1}, true)
	})
}

// TestAdjSetDrainArena checks the bulk-drain primitive the curveball
// randomizer uses at every round start: entries arrive in ascending key
// order with their original flags, the set ends empty, and every block
// is returned to the arena's free lists for the round's re-inserts.
func TestAdjSetDrainArena(t *testing.T) {
	var s AdjSet
	var arena NodeArena
	r := rng.New(13)
	want := map[Vertex]bool{}
	for len(want) < 3*blockMax {
		v := Vertex(r.Intn(8 * blockMax))
		if _, ok := want[v]; ok {
			continue
		}
		orig := r.Bool()
		want[v] = orig
		s.InsertArena(&arena, v, orig, r.Uint32())
	}

	before, blocks := freeBlocks(&arena), len(s.blocks)
	var keys []Vertex
	got := map[Vertex]bool{}
	s.DrainArena(&arena, func(v Vertex, orig bool) {
		keys = append(keys, v)
		got[v] = orig
	})
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatalf("drain not in key order: %v", keys)
	}
	if len(got) != len(want) {
		t.Fatalf("drained %d entries, want %d", len(got), len(want))
	}
	for v, orig := range want {
		if g, ok := got[v]; !ok || g != orig {
			t.Fatalf("entry %d: got (%v, %v), want (true, %v)", v, ok, g, orig)
		}
	}
	if s.Len() != 0 || s.Originals() != 0 {
		t.Fatalf("set not empty after drain: len %d, originals %d", s.Len(), s.Originals())
	}

	// Every drained block must be back on the free lists.
	if freed := freeBlocks(&arena); freed != before+blocks {
		t.Fatalf("free lists hold %d blocks, want %d recycled before the drain + %d drained", freed, before, blocks)
	}

	// An empty set drains as a no-op.
	s.DrainArena(&arena, func(Vertex, bool) { t.Fatal("callback on empty set") })
}

func freeBlocks(a *NodeArena) int {
	n := 0
	for _, f := range a.free {
		n += len(f)
	}
	return n
}

// checkBlocks asserts the blocked layout's invariants in O(blocks):
// non-empty blocks in key order whose lengths sum to Len, full-capacity
// blocks once a set spans several, more than blockMax/2 entries in every
// two adjacent blocks, and hence at most 4d/blockMax + 1 blocks. The
// order and flags of the entries themselves are checkAgainst's.
func checkBlocks(t *testing.T, s *AdjSet) {
	t.Helper()
	n := 0
	for j, b := range s.blocks {
		if len(b) == 0 {
			t.Fatalf("block %d of %d is empty", j, len(s.blocks))
		}
		if c := cap(b); c < minBlock || c > blockMax || c&(c-1) != 0 || len(s.blocks) > 1 && c != blockMax {
			t.Fatalf("block %d of %d has capacity %d", j, len(s.blocks), c)
		}
		if j > 0 {
			prev := s.blocks[j-1]
			if len(b)+len(prev) <= blockMax/2 {
				t.Fatalf("blocks %d and %d hold only %d entries together", j-1, j, len(b)+len(prev))
			}
			if prev[len(prev)-1]>>1 >= b[0]>>1 {
				t.Fatalf("block %d starts at key %d, not after block %d's last key %d", j, b[0]>>1, j-1, prev[len(prev)-1]>>1)
			}
		}
		n += len(b)
	}
	if n != s.Len() {
		t.Fatalf("Len %d, blocks hold %d entries", s.Len(), n)
	}
	if len(s.blocks) > 4*n/blockMax+1 {
		t.Fatalf("%d blocks for %d entries", len(s.blocks), n)
	}
}

// refSet is the differential reference: a plain sorted slice of packed
// entries.
type refSet []uint32

func (r refSet) find(v Vertex) (int, bool) {
	i := sort.Search(len(r), func(i int) bool { return r[i]>>1 >= uint32(v) })
	return i, i < len(r) && r[i]>>1 == uint32(v)
}

func (r *refSet) insert(v Vertex, orig bool) bool {
	i, ok := r.find(v)
	if ok {
		return false
	}
	*r = append(*r, 0)
	copy((*r)[i+1:], (*r)[i:])
	(*r)[i] = pack(v, orig)
	return true
}

func (r *refSet) delete(v Vertex) (bool, bool) {
	i, ok := r.find(v)
	if !ok {
		return false, false
	}
	e := (*r)[i]
	*r = append((*r)[:i], (*r)[i+1:]...)
	return true, e&1 != 0
}

// checkAgainst compares every entry, rank and flag of s with ref, and
// probes membership of every key in [0, span).
func checkAgainst(t *testing.T, s *AdjSet, ref refSet, span int) {
	t.Helper()
	checkBlocks(t, s)
	if s.Len() != len(ref) {
		t.Fatalf("Len %d, reference %d", s.Len(), len(ref))
	}
	origs := 0
	for k, e := range ref {
		if v, o := s.Kth(k); pack(v, o) != e {
			t.Fatalf("Kth(%d) = (%d,%v), reference %#x", k, v, o, e)
		}
		origs += int(e & 1)
	}
	if s.Originals() != origs {
		t.Fatalf("Originals %d, reference %d", s.Originals(), origs)
	}
	for v := Vertex(0); v < Vertex(span); v++ {
		i, ok := ref.find(v)
		if s.Contains(v) != ok || s.Original(v) != (ok && ref[i]&1 != 0) {
			t.Fatalf("Contains/Original(%d) disagree with the reference", v)
		}
	}
}

// TestAdjSetDifferential drives sets far above one block through grow
// and shrink phases, so splits, merges and block removals all happen,
// checking every operation against the reference and the full contents
// and layout invariants periodically.
func TestAdjSetDifferential(t *testing.T) {
	const span = 8 * blockMax
	r := rng.New(17)
	var arena NodeArena
	for _, a := range []*NodeArena{nil, &arena} {
		var s AdjSet
		var ref refSet
		maxBlocks := 0
		for phase := 0; phase < 8; phase++ {
			pIns := 85 // percent: grow on even phases, shrink on odd ones
			if phase%2 == 1 {
				pIns = 15
			}
			for op := 0; op < 6000; op++ {
				v := Vertex(r.Intn(span))
				if r.Intn(100) < pIns {
					orig := r.Bool()
					if got, want := s.InsertArena(a, v, orig, 0), ref.insert(v, orig); got != want {
						t.Fatalf("insert(%d) = %v, reference %v", v, got, want)
					}
				} else {
					f, o := s.DeleteArena(a, v)
					if wf, wo := ref.delete(v); f != wf || o != wo {
						t.Fatalf("delete(%d) = (%v,%v), reference (%v,%v)", v, f, o, wf, wo)
					}
				}
				if len(ref) > 0 {
					k := r.Intn(len(ref))
					if v, o := s.Kth(k); pack(v, o) != ref[k] {
						t.Fatalf("Kth(%d) = (%d,%v), reference %#x", k, v, o, ref[k])
					}
				}
				checkBlocks(t, &s)
				if op%500 == 0 {
					checkAgainst(t, &s, ref, span)
				}
				maxBlocks = max(maxBlocks, len(s.blocks))
			}
			checkAgainst(t, &s, ref, span)
		}
		if maxBlocks < 6 {
			t.Fatalf("sets peaked at %d blocks; the test must exercise multi-block layouts", maxBlocks)
		}
	}
}

// FuzzAdjSetOps decodes bytes into a sequence of inserts, deletes, range
// inserts/deletes (to reach multi-block sizes quickly), Kth queries and
// drains, checking each against the reference and the layout invariants.
func FuzzAdjSetOps(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 1, 0, 2, 0, 0})
	f.Add([]byte{0xfb, 0, 0, 0xfc, 0x10, 0, 0x02, 0x20, 0, 0xfd, 0, 0})
	f.Add(bytes.Repeat([]byte{0xf3, 0x55, 0x07, 0x04, 0x11, 0x03}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		const span = 4096
		var arena NodeArena
		var s AdjSet
		var ref refSet
		for ; len(data) >= 3; data = data[3:] {
			op, run := data[0]%6, 20*int(data[0]>>3)
			v := Vertex(binary.LittleEndian.Uint16(data[1:]) % span)
			orig := data[1]&1 != 0
			switch op {
			case 0:
				if s.InsertArena(&arena, v, orig, 0) != ref.insert(v, orig) {
					t.Fatalf("insert(%d) disagrees with the reference", v)
				}
			case 1:
				f, o := s.DeleteArena(&arena, v)
				if wf, wo := ref.delete(v); f != wf || o != wo {
					t.Fatalf("delete(%d) disagrees with the reference", v)
				}
			case 2:
				for w := v; w < v+Vertex(run) && w < span; w++ {
					if s.InsertArena(&arena, w, orig, 0) != ref.insert(w, orig) {
						t.Fatalf("range insert(%d) disagrees with the reference", w)
					}
				}
			case 3:
				for w := v; w < v+Vertex(run) && w < span; w++ {
					f, o := s.DeleteArena(&arena, w)
					if wf, wo := ref.delete(w); f != wf || o != wo {
						t.Fatalf("range delete(%d) disagrees with the reference", w)
					}
				}
			case 4:
				if len(ref) > 0 {
					k := int(v) % len(ref)
					if w, o := s.Kth(k); pack(w, o) != ref[k] {
						t.Fatalf("Kth(%d) disagrees with the reference", k)
					}
				}
			case 5:
				if len(ref) > 2*blockMax || v%8 != 0 {
					continue // drain rarely, so sets can grow
				}
				var got refSet
				s.DrainArena(&arena, func(w Vertex, o bool) { got = append(got, pack(w, o)) })
				if len(got) != len(ref) {
					t.Fatalf("drained %d entries, reference %d", len(got), len(ref))
				}
				for i := range got {
					if got[i] != ref[i] {
						t.Fatalf("drained entry %d = %#x, reference %#x", i, got[i], ref[i])
					}
				}
				ref = ref[:0]
			}
			checkBlocks(t, &s)
		}
		checkAgainst(t, &s, ref, span)
	})
}

// TestAdjSetSplitAtEveryPosition fills one block to capacity and inserts
// one more key at each possible rank: the split must put every entry,
// old and new, where the sorted order says.
func TestAdjSetSplitAtEveryPosition(t *testing.T) {
	keys := make([]Vertex, blockMax)
	for i := range keys {
		keys[i] = Vertex(2*i + 1)
	}
	for pos := 0; pos <= blockMax; pos++ {
		var s AdjSet
		var ref refSet
		var arena NodeArena
		s.BuildSorted(&arena, keys, nil, true)
		for _, k := range keys {
			ref.insert(k, true)
		}
		v := Vertex(2 * pos)
		if !s.InsertArena(&arena, v, false, 0) || !ref.insert(v, false) {
			t.Fatalf("insert at rank %d failed", pos)
		}
		if len(s.blocks) != 2 {
			t.Fatalf("insert at rank %d left %d blocks, want a split into 2", pos, len(s.blocks))
		}
		checkAgainst(t, &s, ref, 2*blockMax+2)
	}
}

// TestAdjSetBlockArithmetic pins the capacity classes the arena's free
// lists are indexed by.
func TestAdjSetBlockArithmetic(t *testing.T) {
	for n, want := range map[int]int{0: 4, 1: 4, 4: 4, 5: 8, 8: 8, 9: 16, 300: 512, 512: 512} {
		if got := capFor(n); got != want {
			t.Errorf("capFor(%d) = %d, want %d", n, got, want)
		}
	}
	var a NodeArena
	for c := minBlock; c <= blockMax; c *= 2 {
		b := a.block(c)
		if len(b) != 0 || cap(b) != c {
			t.Fatalf("block(%d) has len %d cap %d", c, len(b), cap(b))
		}
		a.put(b)
		if again := a.block(c); cap(again) != c || &again[:1][0] != &b[:1][0] {
			t.Fatalf("block(%d) did not reuse the recycled block", c)
		}
	}
}
