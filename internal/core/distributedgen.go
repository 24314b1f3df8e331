package core

import (
	"fmt"
	"sort"

	"edgeswitch/internal/gen/pergen"
	"edgeswitch/internal/graph"
	"edgeswitch/internal/mpi"
	"edgeswitch/internal/partition"
	"edgeswitch/internal/rng"
)

// The distributed-generation bootstrap (Config.DistributedGen): the
// rank-0 generate-and-scatter path materializes the whole graph on one
// rank and ships p−1 partitions over the wire before a single switch
// runs — O(m) memory and O(m) communication concentrated where the
// paper's scaling argument assumes O(m/p). Here every rank instead
// resolves the generator's counter streams itself (internal/gen/pergen)
// and inserts exactly the edges its partition owns. The only collective
// before switching is an 8-byte allreduce establishing the exact global
// edge count — needed because duplicate contact cross slots collapse at
// their owning rank, so the count is known only after the scan.

// runRankGen is RunRank's bootstrap path for cfg.DistributedGen.
func runRankGen(c *mpi.Comm, t int64, cfg Config) (*Result, error) {
	spec := *cfg.DistributedGen
	gn, err := pergen.New(spec)
	if err != nil {
		return nil, err
	}
	pt, err := genPartitioner(gn, cfg.Scheme, c.Size(), cfg.Seed)
	if err != nil {
		return nil, err
	}
	ck, err := newCheckpointer(c, cfg)
	if err != nil {
		return nil, err
	}
	var eng *rankEngine
	if cfg.Restore {
		// The generated graph's edge count is known only after the scan,
		// so the manifest's m is trusted (m = -1 skips the cross-check);
		// the degree-CRC comparison still pins the restored state exactly.
		eng, _, err = ck.restoreEngine(pt, gn.N(), -1, cfg)
		if err != nil {
			return nil, err
		}
	}
	if eng == nil {
		eng, err = newRankEngineFromGen(c, pt, gn, cfg)
		if err != nil {
			return nil, err
		}
	}
	eng.ckpt = ck
	if eng.m < 2 && t > 0 {
		return nil, fmt.Errorf("core: need at least 2 edges to switch, generator spec yields %d", eng.m)
	}
	return runEngine(eng, t, cfg, func(out *graph.Graph) *Baseline {
		if eng.baseDeg != nil {
			// The sanitized run recorded the global degree sequence right
			// after the partitions were generated (recordBaseline) —
			// exactly the fingerprint switching must preserve.
			return &Baseline{N: eng.n, M: eng.m, Degrees: eng.baseDeg}
		}
		// t == 0: nothing switched, so the reassembled graph doubles as
		// its own baseline and the check reduces to simplicity.
		return NewBaseline(out)
	})
}

// genPartitioner mirrors NewPartitioner without a graph: CP boundaries
// come from the spec-derived reduced-degree table, which every rank
// computes identically.
func genPartitioner(gn *pergen.Gen, scheme Scheme, p int, seed uint64) (partition.Partitioner, error) {
	switch scheme {
	case SchemeCP, "":
		return partition.NewCPFromReduced(gn.ReducedDegrees(), p)
	case SchemeHPD:
		return partition.NewHPD(p)
	case SchemeHPM:
		return partition.NewHPM(p)
	case SchemeHPU:
		return partition.NewHPU(p, rng.Split(seed, 1<<20))
	default:
		return nil, fmt.Errorf("core: unknown scheme %q", scheme)
	}
}

// genEdge is one owned edge of the generation scan.
type genEdge struct{ u, v graph.Vertex }

// newRankEngineFromGen loads a rank engine directly from the generator:
// one pass over the spec's edge enumeration buffers the edges this rank
// owns, then each owned vertex's adjacency is bulk-built in O(d) from
// its sorted targets (graph.BuildSorted), producing the same adjacency
// sets as one-at-a-time insertion without its per-edge searches and
// shifts. Grouping by owner is a counting sort keyed on the dense local
// index (a comparison sort over the whole buffer would cost more than
// the set work it saves); within a group, targets are insertion-sorted —
// reduced adjacencies are small on average, and the large PA hub groups
// that would degrade it quadratically fall back to sort.Slice. A
// repeated edge (contact cross-slot collisions, birthday-rare) is kept
// once. Both copies share their minimum endpoint, so duplicates collapse
// wholly inside one rank and the global edge set stays independent of
// p.
//
// The scan draws one Uint32 from the run RNG per emitted edge,
// duplicates included: the draw once supplied a treap priority, and
// keeping it leaves the switching phase at the same stream position, so
// seeded runs stay bit-identical to those of earlier builds.
func newRankEngineFromGen(c *mpi.Comm, pt partition.Partitioner, gn *pergen.Gen, cfg Config) (*rankEngine, error) {
	e, err := newEmptyRankEngine(c, pt, gn.N(), cfg)
	if err != nil {
		return nil, err
	}
	p := c.Size()
	buf := make([]genEdge, 0, int(gn.Spec().MaxEdges()/int64(p))+gn.N()/p+16)
	gn.PartitionEdges(pt, c.Rank(), func(ed graph.Edge) {
		buf = append(buf, genEdge{ed.U, ed.V})
		e.rnd.Uint32()
	})

	// Dense local-index table for the load: the engine's map serves
	// sparse protocol-time queries, but the bulk load would hit it once
	// per owned edge. PartitionEdges only hands owned minimum endpoints,
	// so entries for foreign vertices are never read.
	lookup := make([]int32, gn.N())
	for i, v := range e.verts {
		lookup[v] = int32(i)
	}

	// Counting sort: group the buffer by owner vertex in two O(m/p)
	// passes, preserving emission order within each group.
	nv := len(e.verts)
	starts := make([]int32, nv+1)
	for i := range buf {
		starts[lookup[buf[i].u]+1]++
	}
	for li := 0; li < nv; li++ {
		starts[li+1] += starts[li]
	}
	sorted := make([]genEdge, len(buf))
	pos := make([]int32, nv)
	copy(pos, starts[:nv])
	for i := range buf {
		li := lookup[buf[i].u]
		sorted[pos[li]] = buf[i]
		pos[li]++
	}

	counts := make([]int64, nv)
	var keys []graph.Vertex
	for li := 0; li < nv; li++ {
		grp := sorted[starts[li]:starts[li+1]]
		if len(grp) == 0 {
			continue
		}
		if len(grp) <= 32 {
			// Stable, so a duplicate's first emission sorts first.
			for i := 1; i < len(grp); i++ {
				for j := i; j > 0 && grp[j].v < grp[j-1].v; j-- {
					grp[j], grp[j-1] = grp[j-1], grp[j]
				}
			}
		} else {
			sort.Slice(grp, func(i, j int) bool { return grp[i].v < grp[j].v })
		}
		keys = keys[:0]
		for i := range grp {
			if n := len(keys); n > 0 && keys[n-1] == grp[i].v {
				continue // duplicate emission collapses here
			}
			keys = append(keys, grp[i].v)
		}
		e.adj.BuildSorted(li, keys, nil, true)
		counts[li] = int64(len(keys))
	}
	e.deg = graph.NewFenwickFrom(counts)
	total, err := c.AllreduceInt64s([]int64{e.deg.Total()}, mpi.OpSum)
	if err != nil {
		return nil, err
	}
	if err := e.finishLoad(total[0], cfg); err != nil {
		return nil, err
	}
	return e, nil
}
