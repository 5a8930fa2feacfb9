package similarity

import (
	"math/bits"
	"slices"

	"freehw/internal/par"
)

// Snapshot is an immutable, ordered set of segments with tombstones, safe
// for any number of concurrent readers. It is the unit the serving layer
// swaps RCU-style: build segments off to the side, compose a Snapshot,
// publish it through an atomic pointer, and in-flight queries keep
// answering against whichever snapshot they loaded — never a half-built
// index.
//
// Documents are globally indexed by LIVE rank: index i is the i-th live
// document in (segment-ordinal, doc-id) order. That is exactly the index
// a single-segment full rebuild of the live documents would assign, so
// Match.Index — and therefore tie-breaking, which prefers the lower
// index — is identical across any segmentation or merge state.
type Snapshot struct {
	segs  []snapSeg
	order []int32 // segment ordinals, largest live count first (see searchSegs)
	total int     // total live documents
}

// snapSeg is one segment's read-side state inside a snapshot.
type snapSeg struct {
	seg    *Segment
	dead   []uint64 // immutable tombstone bitmap (nil = none); bit d of word d/64
	live   int      // live docs in this segment
	offset int      // global live rank of this segment's first live doc
	rank   []int32  // per 64-doc word: live docs before that word; nil when dead == nil
}

// newSnapshot composes segments and tombstone bitmaps into a snapshot,
// precomputing the live-rank tables. segs and deads are owned by the
// snapshot from here on (callers pass clones or immutable slices).
func newSnapshot(segs []*Segment, deads [][]uint64) *Snapshot {
	s := &Snapshot{segs: make([]snapSeg, len(segs))}
	for i, g := range segs {
		var dead []uint64
		if i < len(deads) {
			dead = deads[i]
		}
		ss := &s.segs[i]
		ss.seg = g
		ss.dead = dead
		ss.offset = s.total
		n := g.Docs()
		if dead == nil {
			ss.live = n
		} else {
			words := (n + 63) >> 6
			ss.rank = make([]int32, words)
			live := 0
			for w := 0; w < words; w++ {
				ss.rank[w] = int32(live)
				m := ^dead[w]
				if hi := n - w<<6; hi < 64 {
					m &= 1<<uint(hi) - 1 // bits past the last doc are not live
				}
				live += bits.OnesCount64(m)
			}
			ss.live = live
		}
		s.total += ss.live
	}
	s.order = make([]int32, len(segs))
	for i := range s.order {
		s.order[i] = int32(i)
	}
	slices.SortStableFunc(s.order, func(a, b int32) int { return s.segs[b].live - s.segs[a].live })
	return s
}

// liveRank maps a segment-local doc id to its live rank within the
// segment (the number of live docs before it). d must itself be live.
//
//freehw:hotpath
func (ss *snapSeg) liveRank(d int32) int {
	if ss.dead == nil {
		return int(d)
	}
	w := d >> 6
	return int(ss.rank[w]) + bits.OnesCount64(^ss.dead[w]&(1<<(uint32(d)&63)-1))
}

// selectLive maps a live rank back to the segment-local doc id — the
// inverse of liveRank. r must be in [0, live).
func (ss *snapSeg) selectLive(r int) int32 {
	if ss.dead == nil {
		return int32(r)
	}
	// Find the word containing the r-th live doc (rank is nondecreasing),
	// then select the bit within it.
	w := 0
	for w+1 < len(ss.rank) && int(ss.rank[w+1]) <= r {
		w++
	}
	need := r - int(ss.rank[w])
	m := ^ss.dead[w]
	for b := 0; b < 64; b++ {
		if m&(1<<uint(b)) != 0 {
			if need == 0 {
				return int32(w<<6 + b)
			}
			need--
		}
	}
	panic("similarity: live rank out of range")
}

// Seal freezes the corpus and returns its immutable read view as a
// single-segment snapshot. Sealing transfers ownership: any later Add on
// the underlying Corpus panics, so a writer cannot silently mutate an
// index that concurrent readers hold.
func (c *Corpus) Seal() *Snapshot {
	return newSnapshot([]*Segment{c.sealSegment()}, nil)
}

// SealCorpus builds and seals a corpus in one step (see NewCorpusWorkers).
func SealCorpus(names, texts []string, workers int) *Snapshot {
	return NewCorpusWorkers(names, texts, workers).Seal()
}

// SnapshotOf composes pre-built segments and tombstone bitmaps into a
// snapshot. The slices are cloned; the segments and bitmaps themselves
// must be immutable from here on.
func SnapshotOf(segs []*Segment, deads [][]uint64) *Snapshot {
	return newSnapshot(slices.Clone(segs), slices.Clone(deads))
}

// Len returns the number of live documents.
func (s *Snapshot) Len() int { return s.total }

// Segments returns the number of segments.
func (s *Snapshot) Segments() int { return len(s.segs) }

// Segment returns segment i (for persistence; immutable).
func (s *Snapshot) Segment(i int) *Segment { return s.segs[i].seg }

// SegmentDead returns segment i's tombstone bitmap (nil = none). The
// returned slice is shared and must not be mutated.
func (s *Snapshot) SegmentDead(i int) []uint64 { return s.segs[i].dead }

// SegmentLive returns the number of live documents in segment i.
func (s *Snapshot) SegmentLive(i int) int { return s.segs[i].live }

// Name returns the name of live document i.
func (s *Snapshot) Name(i int) string {
	for si := range s.segs {
		ss := &s.segs[si]
		if i < ss.offset+ss.live {
			return ss.seg.c.names[ss.selectLive(i-ss.offset)]
		}
	}
	panic("similarity: document index out of range")
}

// Best returns the closest live document to the query text, or
// Match{Name: "", Index: -1, Score: 0} when nothing scores above zero.
// Ties resolve to the lowest global index, exactly as in a single-segment
// full rebuild of the live documents.
//
//freehw:hotpath
func (s *Snapshot) Best(text string) Match {
	var buf [1]Match
	if ms := searchSegs(s.segs, s.order, text, 1, searchAuto, buf[:0]); len(ms) > 0 {
		return ms[0]
	}
	return Match{Index: -1}
}

// TopK returns the k closest live matches, best first (score descending,
// index ascending on ties). Only documents sharing at least one term with
// the query qualify: a zero cosine is "no match", so the result holds
// min(k, matching docs) entries rather than padding with arbitrary
// low-index documents.
//
//freehw:hotpath
func (s *Snapshot) TopK(text string, k int) []Match {
	return searchSegs(s.segs, s.order, text, k, searchAuto, nil)
}

// searchSegs is the one query pass behind every Best and TopK, appending
// the top k matches to dst, best first. The query is tokenized and
// counted once; each segment then only binds its distinct terms to its
// own dictionary and runs the exact per-segment engine (searchSegment)
// with its tombstone bitmap.
//
// Segments are visited in order — largest live count first — and the
// running k-th best score is carried from segment to segment, as
// Lucene's minimum competitive score is: a later segment prunes against
// it, or is skipped outright when its whole bound falls strictly below.
// Visiting out of ordinal order is exact because candidates merge on
// (score descending, global index ascending) — the same total order a
// single corpus's heap keeps — and pruning is strict: a document that
// ties the threshold is always scored, so a tie in a small early segment
// still beats the same score at a higher global index. Global indices are
// live ranks (see Snapshot), so every document's index, and therefore
// every tie, is the full rebuild's.
func searchSegs(segs []snapSeg, order []int32, text string, k, mode int, dst []Match) []Match {
	if k <= 0 {
		return dst
	}
	sc := scratchPool.Get().(*searchScratch)
	defer scratchPool.Put(sc)
	q := &sc.q
	q.resolve(text)
	if q.norm == 0 {
		return dst
	}
	statsOn := pruneStatsOn.Load()
	top := sc.top[:0]
	for _, si := range order {
		ss := &segs[si]
		if ss.live == 0 {
			continue
		}
		c := ss.seg.c
		qnorm, known := q.bind(c)
		if !known {
			continue
		}
		floor := -1.0
		if len(top) == k {
			floor = top[0].Score
			// Skip the segment before any bigram lookup when even the
			// binding's bound cannot reach the k-th best (the same strict,
			// slack-guarded comparison searchSegment makes).
			ub, terms := q.bound()
			slack := float64(terms+32) * epsUlp
			if ub*(1+slack) < floor*qnorm*(1-slack) {
				continue
			}
		}
		qts := q.qterms(c, sc.qts)
		sc.qts = qts
		for _, m := range c.searchSegment(sc, qts, qnorm, k, mode, ss.dead, floor, statsOn) {
			m.Index = ss.offset + ss.liveRank(int32(m.Index))
			pushMatch(&top, k, m)
		}
	}
	base := len(dst)
	dst = slices.Grow(dst, len(top))[:base+len(top)]
	for i := len(dst) - 1; i >= base; i-- {
		dst[i] = popMatch(&top)
	}
	sc.top = top
	return dst
}

// BestBatch scores a batch of queries in one pass over the snapshot:
// identical texts are deduplicated — generation pipelines resample the
// same candidate, and every duplicate shares one scoring — and the
// distinct queries fan out across at most workers goroutines (<= 0 means
// GOMAXPROCS). Each distinct query makes one Best pass, so results are
// byte-identical to calling Best per text, in input order.
func (s *Snapshot) BestBatch(workers int, texts []string) []Match {
	if len(texts) == 0 {
		return nil
	}
	if len(texts) == 1 {
		// Single query — the serving fast path: no dedup table, no
		// fan-out, same result.
		return []Match{s.Best(texts[0])}
	}
	slot := make([]int, len(texts))
	index := make(map[string]int, len(texts))
	var distinct []string
	for i, t := range texts {
		j, ok := index[t]
		if !ok {
			j = len(distinct)
			index[t] = j
			distinct = append(distinct, t)
		}
		slot[i] = j
	}
	scored := par.Map(workers, len(distinct), func(i int) Match {
		return s.Best(distinct[i])
	})
	out := make([]Match, len(texts))
	for i := range texts {
		out[i] = scored[slot[i]]
	}
	return out
}
