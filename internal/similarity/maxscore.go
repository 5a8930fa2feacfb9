//freehw:hotpath

package similarity

// Block-max pruned scoring: exact top-k retrieval that skips most of the
// index on selective queries instead of touching every posting of every
// query term.
//
// The starting point is MaxScore/WAND-style pruning over the doc-ordered
// posting lists, with the block-max metadata postingList.add maintains
// incrementally. One twist matters for this corpus: similarity here is
// tf-only cosine — there is no idf — so corpus-universal terms (Verilog
// keywords, punctuation) carry enormous upper bounds. Classic MaxScore,
// which keeps the highest-bound terms essential, would surface every
// document as a candidate and prune nothing on whole-file audit queries.
// The hot path (k == 1, behind Best and BestBatch) therefore splits the
// query's posting lists three ways and scores by gathering rather than by
// cursor merging:
//
//   - Dense lists (document frequency == corpus size; posting position
//     therefore equals doc id) never generate candidates. Their per-block
//     maxima align with document blocks and collapse into one shared
//     per-block bound: the most ALL dense terms together can contribute
//     to any document in that block. And because a dense list is a
//     doc-indexed array, any single document's exact dense contribution
//     is one O(1) read per list — no cursor, no search.
//   - The cheapest sparse lists — ordered by upper bound per posting, the
//     absorption order that buys the most skipped postings per unit of
//     threshold budget — are absorbed into a non-essential prefix while
//     their summed bounds plus the largest dense block bound stay
//     strictly below the threshold. Their postings are never read.
//   - The remaining essential sparse lists are streamed once into a
//     per-document accumulator (the gather). Each touched document is
//     then bounded by dense-block bound + absorbed-prefix bound + its
//     exact gathered sum; documents that straddle the threshold have the
//     block bound replaced by their exact dense contribution before the
//     search pays a full evaluation.
//   - Survivors are evaluated fully — every query term, in canonical
//     query order (first appearance in the query — a property of the
//     query alone, so the same order in every segment), the same order
//     the exhaustive accumulator uses — with early abandonment against
//     canonical-order tail bounds. On a selective audit that is one
//     document: the match.
//   - Documents touched by no essential list are never visited: absorbed
//     lists are covered by the absorption invariant, and dense lists by a
//     final sweep asserting every dense block bound ends strictly below
//     the final threshold (otherwise the search rescores exhaustively —
//     correctness never depends on the sweep passing, only on it being
//     checked).
//
// The threshold that powers all of this is primed before scoring starts
// (see searchPrunedBest): near-duplicate queries carry nearly-unique
// "pointer" terms that vote for the matching document, whose exact score
// — accumulated in canonical order, so bit-identical to what the main
// pass would compute — is pushed into the heap up front.
//
// Exactness is non-negotiable here (the serving layer's golden fixtures
// and the offline/online byte-equality tests pin scores bit-for-bit), and
// rests on two invariants:
//
//  1. Bit-identical sums. A fully evaluated document accumulates its dot
//     product in exactly the order the exhaustive path uses, so the kept
//     scores are not merely close — they are the same float64s.
//  2. Conservative bounds. Upper bounds are inflated and the threshold
//     deflated by a slack factor covering worst-case float64 summation
//     error (bounds and scores are sums in different orders, so exact
//     comparison would be unsound), and a candidate is pruned only when
//     its bound is STRICTLY below the threshold — so only documents
//     provably worse than the k-th best are ever skipped. Ties are never
//     pruned: a tying document always reaches full evaluation, where the
//     heap's lowest-index tie rule (matchWorse) decides, independent of
//     visit order. That strictness is also what makes threshold priming
//     sound: pushing a real document's exact score early can never cause
//     a different document with an equal or better score to be skipped.
//
// k > 1 (TopK) uses the classic MaxScore DAAT partition over all cursors
// — the same bounds, threshold discipline, and canonical evaluation,
// without the dense split (a size-k heap makes the k == 1 path's
// re-push-idempotence argument unavailable).
//
// Worst case, the corpus is so homogeneous that no threshold separates
// documents (every doc scores within the bounds' slack of the best — the
// adversarial case for any exact pruner). Both paths detect that pruning
// is not paying and fall back to the exhaustive accumulator, bounding the
// regression to a small constant factor while keeping the large wins on
// selective workloads.

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

const (
	// blockSize postings share one bmax entry. Small enough that a block
	// skip is fine-grained, large enough that the metadata is ~1.5% of
	// the postings.
	blockSize  = 64
	blockMask  = blockSize - 1
	blockShift = 6

	// pruneMinDocs is the corpus size below which searchAuto uses the
	// exhaustive accumulator: pruning bookkeeping cannot pay for itself
	// on tiny corpora. (Results are identical either way — the pruned
	// path is bit-exact — this is purely a latency knob.)
	pruneMinDocs = 96

	// bailMinCandidates / bailEvalNum / bailEvalDen: after this many
	// threshold-guarded candidates, if more than bailEvalNum/bailEvalDen
	// of them required full evaluation, the corpus is too homogeneous
	// for pruning and the search switches to the exhaustive accumulator.
	bailMinCandidates = 24
	bailEvalNum       = 3
	bailEvalDen       = 4

	// epsUlp is one float64 ulp at 1.0; the slack factors scale it by the
	// number of terms in a sum (plus margin) to bound accumulated
	// rounding error of nonnegative sums-of-products.
	epsUlp = 2.3e-16
)

// Search modes. Best/TopK use searchAuto; tests force a path to compare
// the two bit-for-bit.
const (
	searchAuto = iota
	searchPruned
	searchExhaustive
)

// PruneStats is a snapshot of the pruned-scoring counters (collected only
// while EnablePruneStats(true) is set; zero-cost one atomic load per query
// otherwise). PostingsTotal counts every posting of every resolved query
// term; PostingsVisited counts the ones actually read (streamed, probed,
// or fetched for an exact dense refinement). The difference is the work
// pruning skipped.
type PruneStats struct {
	Queries         uint64 // scored queries (pruned path only)
	Exhaustive      uint64 // queries answered by the exhaustive fallback
	Bailouts        uint64 // pruned searches that bailed to the accumulator
	PostingsTotal   uint64
	PostingsVisited uint64
	Candidates      uint64 // documents surfaced by essential lists
	FullEvals       uint64 // candidates that reached full evaluation
	BlockSkips      uint64 // candidates pruned by a dense/bmax block bound alone
}

var pruneStatsOn atomic.Bool

var pruneCounters struct {
	queries, exhaustive, bailouts         atomic.Uint64
	total, visited, candidates, fullEvals atomic.Uint64
	blockSkips                            atomic.Uint64
}

// EnablePruneStats toggles collection of PruneStats.
func EnablePruneStats(on bool) { pruneStatsOn.Store(on) }

// ReadPruneStats returns the counters accumulated since the last reset.
func ReadPruneStats() PruneStats {
	return PruneStats{
		Queries:         pruneCounters.queries.Load(),
		Exhaustive:      pruneCounters.exhaustive.Load(),
		Bailouts:        pruneCounters.bailouts.Load(),
		PostingsTotal:   pruneCounters.total.Load(),
		PostingsVisited: pruneCounters.visited.Load(),
		Candidates:      pruneCounters.candidates.Load(),
		FullEvals:       pruneCounters.fullEvals.Load(),
		BlockSkips:      pruneCounters.blockSkips.Load(),
	}
}

// ResetPruneStats zeroes the counters.
func ResetPruneStats() {
	pruneCounters.queries.Store(0)
	pruneCounters.exhaustive.Store(0)
	pruneCounters.bailouts.Store(0)
	pruneCounters.total.Store(0)
	pruneCounters.visited.Store(0)
	pruneCounters.candidates.Store(0)
	pruneCounters.fullEvals.Store(0)
	pruneCounters.blockSkips.Store(0)
}

// pruneCursor is one query term's posting-list view: the doc-ordered
// postings, block maxima, the query-side count, and the term's global
// upper bound contribution. The k > 1 DAAT path also uses it as a cursor
// via pos/seek; the k == 1 gather path never moves pos.
type pruneCursor struct {
	docs []int32
	ws   []float64
	bmax []float64
	qw   float64
	ub   float64 // qw * tmax, raw (slack applied at comparison sites)
	pos  int
}

// seek advances the cursor to the first posting with doc >= d (galloping
// from the current position, so total seek cost over a query is
// O(len * log) regardless of stride).
func (cur *pruneCursor) seek(d int32) {
	docs := cur.docs
	n := len(docs)
	pos := cur.pos
	if pos >= n || docs[pos] >= d {
		return
	}
	step := 1
	next := pos + 1
	for next < n && docs[next] < d {
		pos = next
		next += step
		step <<= 1
	}
	hi := next
	if hi > n {
		hi = n
	}
	lo := pos + 1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if docs[mid] < d {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	cur.pos = lo
}

// searchScratch holds the per-search allocations, pooled across queries:
// the resolved query, its binding to the current segment, the engine's
// working arrays, and the per-segment and cross-segment heaps.
type searchScratch struct {
	q     query
	qts   []uint64
	curs  []pruneCursor
	ord   []int32
	dord  []int32
	touch []int32
	pref  []float64
	tail  []float64
	dense []float64
	dtail []float64
	prime []int32
	h     matchHeap
	top   matchHeap
}

var scratchPool = sync.Pool{New: func() any { return &searchScratch{} }}

// accPool recycles per-document accumulators (sized to the corpus).
var accPool = sync.Pool{New: func() any { return new([]float64) }}

func getAcc(n int) *[]float64 {
	p := accPool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	clear(*p)
	return p
}

// deadBit reports whether doc d is tombstoned in the bitmap (nil = no
// tombstones). Bit d of word d/64, the layout Snapshot and Index share.
func deadBit(dead []uint64, d int32) bool {
	return dead != nil && dead[d>>6]&(1<<(uint32(d)&63)) != 0
}

// searchSegment is the per-segment scoring engine behind every Best and
// TopK: the exact top-k matches of one segment, for a query already bound
// to its dictionary (qts, qnorm — see query.bind). mode selects the path
// (searchAuto decides by segment size); both paths return bit-identical
// results. The matches come back as sc.h, an unordered heap carrying
// segment-local doc ids.
//
// Tombstoned documents (dead, nil = none) never reach the heap AND never
// set the pruning threshold (a dead doc's score raising theta could
// wrongly prune a live doc), so the result is bit-identical to scoring a
// segment that never contained them.
//
// floor is the k-th best score the earlier segments of the same query
// produced (< 0 = none yet). It seeds the pruning threshold, deflated like
// every threshold, so a document is skipped only when its bound is
// STRICTLY below it: such a document can neither beat nor tie the k-th
// best, whatever its global index. When even the whole segment's bound —
// the smaller of Σ qw·tmax and the Cauchy–Schwarz bound over its terms
// (see query.bound), inflated — is strictly below, the segment is skipped
// without touching a posting.
func (c *Corpus) searchSegment(sc *searchScratch, qts []uint64, qnorm float64, k, mode int, dead []uint64, floor float64, statsOn bool) matchHeap {
	h := sc.h[:0]
	if k > len(c.names) {
		k = len(c.names)
	}
	if cap(h) < k {
		h = make(matchHeap, 0, k)
	}
	sc.h = h

	// Build cursors in canonical query order (qts is in the query's
	// first-appearance order): the canonical evaluation order. Terms with
	// empty posting lists cannot contribute and are dropped — dropping
	// preserves the relative order, so per-document sums stay canonical.
	curs := sc.curs[:0]
	totalPostings := 0
	bound, sq := 0.0, 0.0
	for _, qt := range qts {
		pl := &c.postings[qtermID(qt)]
		if len(pl.docs) == 0 {
			continue
		}
		curs = append(curs, pruneCursor{})
		cur := &curs[len(curs)-1]
		cur.docs, cur.ws, cur.bmax = pl.docs, pl.ws, pl.bmax
		cur.qw = qtermW(qt)
		cur.ub = cur.qw * pl.tmax
		totalPostings += len(pl.docs)
		bound += cur.ub
		sq += cur.qw * cur.qw
	}
	sc.curs = curs
	bound = min(bound, math.Sqrt(sq)) // Cauchy–Schwarz, see query.bound
	n := len(curs)
	if n == 0 || k <= 0 {
		return h
	}

	// Slack factors: any bound is a sum of at most n products, so one
	// multiplicative inflation covers its worst-case rounding deficit; the
	// threshold is deflated symmetrically (it round-trips through a score
	// division). See the package comment for why comparing differently-
	// ordered float sums needs this.
	slack := float64(n+32) * epsUlp
	thetaAcc := -1.0
	if floor >= 0 {
		thetaAcc = floor * qnorm * (1 - slack)
	}
	if thetaAcc >= 0 && bound*(1+slack) < thetaAcc {
		return h // not a search: counts in no PruneStats field
	}
	usePruned := mode == searchPruned || (mode == searchAuto && len(c.names) >= pruneMinDocs)
	if statsOn {
		pruneCounters.total.Add(uint64(totalPostings))
		if usePruned {
			pruneCounters.queries.Add(1)
		} else {
			pruneCounters.exhaustive.Add(1)
		}
	}

	switch {
	case !usePruned:
		h = c.finishExhaustive(curs, -1, h, k, qnorm, statsOn, dead)
	case k == 1:
		h = c.searchPrunedBest(sc, totalPostings, h, qnorm, slack, thetaAcc, statsOn, dead)
	default:
		h = c.searchPrunedDAAT(sc, totalPostings, h, k, qnorm, slack, thetaAcc, statsOn, dead)
	}
	sc.h = h
	return h
}

// pushMatch offers m to the bounded heap, returning true if the heap
// changed (weakest-out, ties keep the lower index).
func pushMatch(h *matchHeap, k int, m Match) bool {
	s := *h
	if len(s) < k {
		s = append(s, m)
		for i := len(s) - 1; i > 0; {
			p := (i - 1) / 2
			if !matchWorse(s[i], s[p]) {
				break
			}
			s[i], s[p] = s[p], s[i]
			i = p
		}
		*h = s
		return true
	}
	if !matchWorse(s[0], m) {
		return false
	}
	s[0] = m
	s.siftDown()
	return true
}

// popMatch removes and returns the weakest kept match.
func popMatch(h *matchHeap) Match {
	s := *h
	m := s[0]
	s[0] = s[len(s)-1]
	s = s[:len(s)-1]
	s.siftDown()
	*h = s
	return m
}

// siftDown restores the heap property below the root.
func (h matchHeap) siftDown() {
	for i := 0; ; {
		w := 2*i + 1
		if w >= len(h) {
			return
		}
		if r := w + 1; r < len(h) && matchWorse(h[r], h[w]) {
			w = r
		}
		if !matchWorse(h[w], h[i]) {
			return
		}
		h[i], h[w] = h[w], h[i]
		i = w
	}
}

// canonicalTails fills sc.tail with tail[i] = inflated sum of upper
// bounds of cursors i.. in canonical order — what a full evaluation can
// still add after cursor i-1.
func canonicalTails(sc *searchScratch, inflate float64) []float64 {
	curs := sc.curs
	n := len(curs)
	tail := sc.tail[:0]
	if cap(tail) < n+1 {
		tail = make([]float64, n+1)
	}
	tail = tail[:n+1]
	tail[n] = 0
	rcum := 0.0
	for i := n - 1; i >= 0; i-- {
		rcum += curs[i].ub
		tail[i] = rcum * inflate
	}
	sc.tail = tail
	return tail
}

// evalCanonical computes document d's exact dot product — every query
// term, in canonical query order, the bit-identical twin of the
// exhaustive accumulator's per-doc sum — without moving any cursor
// position. Dense lists (len == nDocs, so posting position == doc id) are
// read directly; the rest binary-search. With theta >= 0 it abandons
// early (reporting abandoned=true) once the partial sum plus the
// canonical tail bound cannot reach theta.
func evalCanonical(curs []pruneCursor, tail []float64, nDocs int, d int32, theta float64) (acc float64, abandoned bool) {
	for i := range curs {
		if len(curs[i].docs) == nDocs {
			acc += curs[i].qw * curs[i].ws[d]
		} else if j, ok := binSearchDocs(curs[i].docs, d); ok {
			acc += curs[i].qw * curs[i].ws[j]
		}
		if theta >= 0 && acc+tail[i+1] < theta {
			return acc, true
		}
	}
	return acc, false
}

// Threshold priming (see searchPrunedBest).
const (
	primeSelDF   = 4   // pointer lists: terms in almost no documents
	primeBudget  = 4   // full evaluations spent on seeding
	primeCollect = 512 // cap on pointer postings gathered
)

// hasPointer reports whether any sparse list is a pointer list (df <=
// primeSelDF): a term in almost no document, which names the file a
// near-duplicate was copied from.
func hasPointer(curs []pruneCursor, nDocs int) bool {
	for i := range curs {
		if df := len(curs[i].docs); df <= primeSelDF && df != nDocs {
			return true
		}
	}
	return false
}

// searchPrunedBest is the k == 1 gather engine (see the package comment):
// dense/sparse split, threshold priming, absorbed-prefix partition, one
// streaming gather of the essential sparse postings, then bound → refine →
// canonical evaluation per touched document. The size-1 heap makes every
// push of an already-known document a no-op, which is what lets priming
// and the exhaustive fallbacks re-score documents freely.
func (c *Corpus) searchPrunedBest(sc *searchScratch, totalPostings int, h matchHeap, qnorm, slack, thetaAcc float64, statsOn bool, dead []uint64) matchHeap {
	curs := sc.curs
	n := len(curs)
	nDocs := len(c.names)
	inflate := 1 + slack
	if !hasPointer(curs, nDocs) {
		// Nothing to prime the threshold with: a fresh candidate rather
		// than a copy. Such a search does not prune in practice — the
		// threshold stays below the keyword mass every document carries —
		// so answer it with the accumulator before paying for the setup.
		if statsOn {
			pruneCounters.bailouts.Add(1)
		}
		return c.finishExhaustive(curs, -1, h, 1, qnorm, statsOn, dead)
	}
	deflate := 1 - slack

	// Dense/sparse split: dense lists fold into one shared per-document-
	// block bound and a list of doc-indexed arrays for exact refinement.
	nBlocks := (nDocs + blockMask) >> blockShift
	denseBmax := sc.dense
	if cap(denseBmax) < nBlocks {
		denseBmax = make([]float64, nBlocks)
	}
	denseBmax = denseBmax[:nBlocks]
	clear(denseBmax)
	sc.dense = denseBmax
	ord := sc.ord[:0]
	dord := sc.dord[:0]
	for i := range curs {
		if len(curs[i].docs) == nDocs {
			dord = append(dord, int32(i))
			for b, bm := range curs[i].bmax {
				denseBmax[b] += curs[i].qw * bm
			}
		} else {
			ord = append(ord, int32(i))
		}
	}
	sc.ord, sc.dord = ord, dord
	nDense := len(dord)
	denseBmaxMax := 0.0
	for _, v := range denseBmax {
		if v > denseBmaxMax {
			denseBmaxMax = v
		}
	}
	// Refinement order: dense lists by DESCENDING upper bound (ties by
	// index — deterministic), with dtail[i] = what lists i.. could still
	// contribute. Reading the most uncertain lists first lets a
	// refinement stop after a couple of exact reads instead of all of
	// them.
	sortDenseByUBDesc(dord, curs)
	dtail := sc.dtail[:0]
	if cap(dtail) < nDense+1 {
		dtail = make([]float64, nDense+1)
	}
	dtail = dtail[:nDense+1]
	dtail[nDense] = 0
	for i := nDense - 1; i >= 0; i-- {
		dtail[i] = dtail[i+1] + curs[dord[i]].ub
	}
	sc.dtail = dtail
	if len(ord) == 0 {
		// Every list is dense: no sparse list to surface candidates, so
		// the whole corpus must be scored anyway.
		return c.finishExhaustive(curs, -1, h, 1, qnorm, statsOn, dead)
	}
	sortSparseByRatio(ord, curs)

	// pref[i]: raw sum of the absorbed-prefix upper bounds ord[:i+1] —
	// the most those sparse lists can ever contribute to any document.
	pref := sc.pref[:0]
	cum := 0.0
	for _, ci := range ord {
		cum += curs[ci].ub
		pref = append(pref, cum)
	}
	sc.pref = pref

	tail := canonicalTails(sc, inflate)

	var visited, fullEvals, blockSkips uint64
	evalBudget := uint64(totalPostings) / bailEvalDen

	// thetaAcc is the comparison threshold: the best known dot product,
	// DEFLATED by the slack factor. Deflation provides an absolute margin
	// proportional to theta itself — necessary because a candidate's
	// partial sums can fall short of its final accumulated value by
	// rounding error that scales with the total, not with the (possibly
	// tiny) remaining tail bound. <0 means no threshold yet; the caller
	// seeds it from earlier segments' best.
	updateTheta := func() {
		if len(h) == 1 {
			if t := h[0].Score * qnorm * deflate; t > thetaAcc {
				thetaAcc = t
			}
		}
	}

	flushStats := func(cands uint64) {
		if statsOn {
			pruneCounters.visited.Add(visited)
			pruneCounters.candidates.Add(cands)
			pruneCounters.fullEvals.Add(fullEvals)
			pruneCounters.blockSkips.Add(blockSkips)
		}
	}
	bailExhaustive := func(cands uint64) matchHeap {
		if statsOn {
			pruneCounters.bailouts.Add(1)
		}
		flushStats(cands)
		// The gather never moved cursor positions, so the accumulator
		// streams the whole corpus; re-pushing the document the heap
		// already holds is a no-op (same score, same index).
		return c.finishExhaustive(curs, -1, h, 1, qnorm, statsOn, dead)
	}
	// hopeless reports whether the final completeness sweep could ever
	// pass: it can only if every dense block bound ends strictly below the
	// threshold, and the threshold only ever rises. When the largest dense
	// block bound already meets it — a fresh candidate against a
	// homogeneous corpus, where the best score is mediocre but keyword
	// mass is everywhere — pruning is doomed and the search should stream
	// immediately.
	hopeless := func() bool {
		return nDense > 0 && (thetaAcc < 0 || denseBmaxMax*inflate >= thetaAcc)
	}

	// Threshold priming: scoring visits documents in essential-list order,
	// so on a needle-in-haystack audit the threshold would stay low until
	// the matching document happens to come up. Instead, fully score a
	// handful of documents up front and push them straight into the heap:
	// each primed score is accumulated in canonical order, so it is
	// bit-identical to what the main pass would compute, and re-pushing
	// the same document later is a no-op. The threshold is live before the
	// partition is drawn, and completeness never depends on a primed
	// document being re-surfaced.
	// Prime candidates are elected by vote: gather the postings of the
	// pointer lists (see hasPointer — a near-dup query has ~one such term
	// per copied line, all naming the same file) and score the documents
	// they name most often.
	{
		collect := sc.prime[:0]
		for oi := len(ord) - 1; oi >= 0 && len(collect) < primeCollect; oi-- {
			cur := &curs[ord[oi]]
			if len(cur.docs) <= primeSelDF {
				collect = append(collect, cur.docs...)
			}
		}
		sc.prime = collect
		var primeDocs [primeBudget]int32
		var cnts [primeBudget]int
		nPrime := 0
		slices.Sort(collect)
		// Keep the primeBudget docs with the longest runs (= named by the
		// most pointer terms). Replacement is strict-greater, and runs
		// arrive in ascending doc order, so ties keep lower ids —
		// deterministic.
		for i := 0; i < len(collect); {
			j := i + 1
			for j < len(collect) && collect[j] == collect[i] {
				j++
			}
			run := j - i
			if deadBit(dead, collect[i]) {
				i = j // tombstoned doc: must not seed the threshold
				continue
			}
			if nPrime < primeBudget {
				primeDocs[nPrime], cnts[nPrime] = collect[i], run
				nPrime++
			} else {
				mi := 0
				for s := 1; s < primeBudget; s++ {
					if cnts[s] < cnts[mi] {
						mi = s
					}
				}
				if run > cnts[mi] {
					primeDocs[mi], cnts[mi] = collect[i], run
				}
			}
			i = j
		}
		// Best guess first (descending vote count, ties by lower doc id):
		// the leader alone decides whether pruning is viable, so the
		// hopeless check can run after one evaluation instead of four.
		for i := 1; i < nPrime; i++ {
			d, ct := primeDocs[i], cnts[i]
			j := i
			for j > 0 && (cnts[j-1] < ct || (cnts[j-1] == ct && primeDocs[j-1] > d)) {
				primeDocs[j], cnts[j] = primeDocs[j-1], cnts[j-1]
				j--
			}
			primeDocs[j], cnts[j] = d, ct
		}
		for pi, d := range primeDocs[:nPrime] {
			acc, _ := evalCanonical(curs, tail, nDocs, d, -1)
			visited += uint64(n)
			if acc > 0 {
				pushMatch(&h, 1, Match{Name: c.names[d], Index: int(d), Score: acc / qnorm})
			}
			if pi == 0 {
				// A fresh candidate against a homogeneous corpus is decided
				// here: the primed threshold lands below the dense block
				// bounds and the remaining evaluations would be wasted.
				updateTheta()
				if hopeless() {
					return bailExhaustive(0)
				}
			}
		}
	}

	updateTheta()
	if hopeless() {
		return bailExhaustive(0)
	}

	// Fixed partition: absorb the cheapest sparse lists while their
	// summed bounds plus the largest dense block bound stay strictly
	// below the threshold. This is exactly the invariant that lets
	// documents appearing only in absorbed lists go unvisited.
	nonEss := 0
	if thetaAcc >= 0 {
		for nonEss < len(ord) && (pref[nonEss]+denseBmaxMax)*inflate < thetaAcc {
			nonEss++
		}
	}
	prefPart := 0.0
	if nonEss > 0 {
		prefPart = pref[nonEss-1]
	}
	essPostings := 0
	for _, ci := range ord[nonEss:] {
		essPostings += len(curs[ci].docs)
	}

	// If most of the index would be streamed anyway, pruning cannot pay:
	// go straight to the fused exhaustive accumulator.
	if uint64(essPostings) > uint64(totalPostings)/2 {
		return bailExhaustive(0)
	}

	// Gather: stream the essential sparse postings once into a pooled
	// per-document accumulator, recording each document on first touch
	// (all contributions are positive, so zero means untouched). The
	// touched order is a deterministic function of corpus and query.
	accp := getAcc(nDocs)
	defer accPool.Put(accp)
	acc := *accp
	touched := sc.touch[:0]
	for _, ci := range ord[nonEss:] {
		cur := &curs[ci]
		qw := cur.qw
		for j, d := range cur.docs {
			if acc[d] == 0 {
				touched = append(touched, d)
			}
			acc[d] += qw * cur.ws[j]
		}
	}
	sc.touch = touched
	visited += uint64(essPostings)

	// Score the touched documents: cheap bound, exact dense refinement
	// for straddlers, canonical evaluation for survivors. Tombstoned docs
	// are skipped before any bound or evaluation — they can neither match
	// nor raise the threshold.
	for _, d := range touched {
		if deadBit(dead, d) {
			continue
		}
		if thetaAcc >= 0 {
			bound := denseBmax[d>>blockShift] + prefPart + acc[d]
			if bound*inflate < thetaAcc {
				blockSkips++
				continue
			}
			if nDense > 0 {
				// The block bound straddles the threshold. Dense lists are
				// doc-indexed (docs[j] == j), so the document's EXACT dense
				// contribution is one O(1) read per dense list — swap reads
				// in for upper bounds, most uncertain list first, until the
				// bound drops strictly below the threshold or every list is
				// exact (then a full evaluation is truly warranted).
				base := prefPart + acc[d]
				exact := 0.0
				pruned := false
				for i, di := range dord {
					cur := &curs[di]
					exact += cur.qw * cur.ws[d]
					visited++
					if (base+exact+dtail[i+1])*inflate < thetaAcc {
						pruned = true
						break
					}
				}
				if pruned {
					continue
				}
			}
		}
		av, abandoned := evalCanonical(curs, tail, nDocs, d, thetaAcc)
		visited += uint64(n)
		fullEvals++
		if !abandoned && av > 0 {
			if pushMatch(&h, 1, Match{Name: c.names[d], Index: int(d), Score: av / qnorm}) {
				updateTheta()
			}
		}
		// Bailout: pruning is not separating documents (homogeneous
		// corpus) — the budget bounds the damage to a fraction of one
		// exhaustive pass before switching to it.
		if visited > evalBudget {
			return bailExhaustive(uint64(len(touched)))
		}
	}

	// Dense completeness sweep: documents in no essential list were never
	// individually examined, and they are provably below the threshold
	// only if every dense block bound ends strictly below it. When any
	// block fails the check (short documents with outsized weights, or no
	// threshold at all), rescore exhaustively — correctness never depends
	// on this sweep passing, only on it being checked.
	if nDense > 0 {
		flagged := thetaAcc < 0
		if !flagged {
			for _, v := range denseBmax {
				if v*inflate >= thetaAcc {
					flagged = true
					break
				}
			}
		}
		if flagged {
			return bailExhaustive(uint64(len(touched)))
		}
	}
	flushStats(uint64(len(touched)))
	return h
}

// searchPrunedDAAT is the k > 1 MaxScore engine: document-at-a-time
// cursor merging over all posting lists, a non-essential prefix absorbed
// by the running k-th-best threshold, per-candidate bounds from exact
// essential reads, and canonical full evaluation for survivors. It bails
// to the exhaustive accumulator for the remaining document range when
// pruning is not paying.
func (c *Corpus) searchPrunedDAAT(sc *searchScratch, totalPostings int, h matchHeap, k int, qnorm, slack, thetaAcc float64, statsOn bool, dead []uint64) matchHeap {
	curs := sc.curs
	n := len(curs)
	inflate := 1 + slack
	deflate := 1 - slack

	ord := sc.ord[:0]
	for i := range curs {
		ord = append(ord, int32(i))
	}
	sortSparseByRatio(ord, curs)
	sc.ord = ord

	// pref[i]: raw sum of the absorbed-prefix upper bounds ord[:i+1].
	pref := sc.pref[:0]
	cum := 0.0
	for _, ci := range ord {
		cum += curs[ci].ub
		pref = append(pref, cum)
	}
	sc.pref = pref

	tail := canonicalTails(sc, inflate)

	nonEss := 0
	var visited, candidates, fullEvals, blockSkips uint64
	evalBudget := uint64(totalPostings) / bailEvalDen
	var guardedCands, guardedEvals uint64
	lastDoc := int32(-1)

	// thetaAcc: the k-th best dot product, deflated (see searchPrunedBest).
	updateTheta := func() {
		if len(h) == k {
			if t := h[0].Score * qnorm * deflate; t > thetaAcc {
				thetaAcc = t
			}
		}
	}

	flushStats := func() {
		if statsOn {
			pruneCounters.visited.Add(visited)
			pruneCounters.candidates.Add(candidates)
			pruneCounters.fullEvals.Add(fullEvals)
			pruneCounters.blockSkips.Add(blockSkips)
		}
	}

	for {
		// Grow the non-essential prefix as the threshold rises. Documents
		// appearing only in absorbed lists are bounded by pref and never
		// surface — that is sound because the check held (with the then-
		// current, only-ever-lower threshold) at the moment the frontier
		// passed them.
		if thetaAcc >= 0 {
			for nonEss < n && pref[nonEss]*inflate < thetaAcc {
				nonEss++
			}
		}
		if nonEss == n {
			break // no document can reach the top k on any term
		}
		prefPart := 0.0
		if nonEss > 0 {
			prefPart = pref[nonEss-1]
		}

		// With a single essential cursor, skip whole blocks whose bmax
		// cannot lift any document past the threshold.
		if nonEss == n-1 && thetaAcc >= 0 {
			cur := &curs[ord[n-1]]
			for cur.pos < len(cur.docs) {
				b := cur.pos >> blockShift
				if (prefPart+cur.qw*cur.bmax[b])*inflate < thetaAcc {
					next := (b + 1) << blockShift
					if next > len(cur.docs) {
						next = len(cur.docs)
					}
					cur.pos = next
					blockSkips++
					continue
				}
				break
			}
		}

		// Next candidate: minimum current doc across essential cursors.
		d := int32(math.MaxInt32)
		for _, ci := range ord[nonEss:] {
			cur := &curs[ci]
			if cur.pos < len(cur.docs) && cur.docs[cur.pos] < d {
				d = cur.docs[cur.pos]
			}
		}
		if d == math.MaxInt32 {
			break // essential cursors exhausted
		}
		lastDoc = d
		if deadBit(dead, d) {
			// Tombstoned: advance past it without scoring — its score must
			// never reach the heap or set the threshold.
			for _, ci := range ord[nonEss:] {
				cur := &curs[ci]
				if cur.pos < len(cur.docs) && cur.docs[cur.pos] == d {
					cur.pos++
				}
			}
			continue
		}
		candidates++

		// Candidate bound: everything the absorbed prefix could add plus
		// the candidate's EXACT essential contributions (each essential
		// cursor is already positioned on d, so the exact weight is as
		// cheap as its block max and far tighter).
		if thetaAcc >= 0 {
			bound := prefPart
			for _, ci := range ord[nonEss:] {
				cur := &curs[ci]
				if cur.pos < len(cur.docs) && cur.docs[cur.pos] == d {
					bound += cur.qw * cur.ws[cur.pos]
				}
			}
			guardedCands++
			if bound*inflate < thetaAcc {
				for _, ci := range ord[nonEss:] {
					cur := &curs[ci]
					if cur.pos < len(cur.docs) && cur.docs[cur.pos] == d {
						cur.pos++
						visited++
					}
				}
				continue
			}
		}

		// Full evaluation in canonical query order — the bit-identical
		// twin of the exhaustive accumulator's per-doc sum — with early
		// abandonment against the canonical-order tail bounds.
		acc := 0.0
		abandoned := false
		fullEvals++
		if thetaAcc >= 0 {
			guardedEvals++
		}
		for i := range curs {
			cur := &curs[i]
			cur.seek(d)
			visited++
			if cur.pos < len(cur.docs) && cur.docs[cur.pos] == d {
				acc += cur.qw * cur.ws[cur.pos]
				cur.pos++
			}
			if thetaAcc >= 0 && acc+tail[i+1] < thetaAcc {
				for j := i + 1; j < n; j++ {
					cj := &curs[j]
					if cj.pos < len(cj.docs) && cj.docs[cj.pos] == d {
						cj.pos++
					}
				}
				abandoned = true
				break
			}
		}
		if !abandoned && acc > 0 {
			if pushMatch(&h, k, Match{Name: c.names[d], Index: int(d), Score: acc / qnorm}) {
				updateTheta()
			}
		}

		// Bailout: pruning is not separating documents (homogeneous
		// corpus) — finish with the streaming accumulator instead of
		// paying per-candidate DAAT overhead for every remaining doc.
		if visited > evalBudget ||
			(guardedCands >= bailMinCandidates && guardedEvals*bailEvalDen >= guardedCands*bailEvalNum) {
			if statsOn {
				pruneCounters.bailouts.Add(1)
			}
			flushStats()
			return c.finishExhaustive(curs, lastDoc, h, k, qnorm, statsOn, dead)
		}
	}
	flushStats()
	return h
}

// binSearchDocs finds d in a sorted doc-id list.
func binSearchDocs(docs []int32, d int32) (int, bool) {
	lo, hi := 0, len(docs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if docs[mid] < d {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(docs) && docs[lo] == d {
		return lo, true
	}
	return 0, false
}

// sortDenseByUBDesc orders dense list indices by descending upper bound,
// ties by ascending index — deterministic refinement order.
func sortDenseByUBDesc(dord []int32, curs []pruneCursor) {
	for i := 1; i < len(dord); i++ {
		v := dord[i]
		j := i - 1
		for j >= 0 && (curs[dord[j]].ub < curs[v].ub ||
			(curs[dord[j]].ub == curs[v].ub && dord[j] > v)) {
			dord[j+1] = dord[j]
			j--
		}
		dord[j+1] = v
	}
}

// sortSparseByRatio orders cursor indices by ascending upper bound per
// posting (ub/df): the absorption order that buys the most skipped
// postings per unit of threshold budget. Compared via cross-
// multiplication (no division), ties by ascending index — deterministic.
// Insertion sort: n is small and the slice is reused across queries.
func sortSparseByRatio(ord []int32, curs []pruneCursor) {
	less := func(a, b int32) bool {
		ra := curs[a].ub * float64(len(curs[b].docs))
		rb := curs[b].ub * float64(len(curs[a].docs))
		if ra != rb {
			return ra < rb
		}
		return a < b
	}
	for i := 1; i < len(ord); i++ {
		v := ord[i]
		j := i - 1
		for j >= 0 && less(v, ord[j]) {
			ord[j+1] = ord[j]
			j--
		}
		ord[j+1] = v
	}
}

// finishExhaustive scores every document with index > from against the
// cursors' remaining postings using the classic accumulator — the same
// adds in the same canonical order as ever — and folds the results into
// the heap in ascending doc order (so tie resolution matches the pruned
// paths and the historical TopK exactly). from = -1 scores the whole
// corpus: that IS the exhaustive path Best/TopK always had.
func (c *Corpus) finishExhaustive(curs []pruneCursor, from int32, h matchHeap, k int, qnorm float64, statsOn bool, dead []uint64) matchHeap {
	nDocs := len(c.names)
	accp := getAcc(nDocs)
	defer accPool.Put(accp)
	acc := *accp
	start := int(from) + 1
	var visited uint64
	for i := 0; i < len(curs); {
		cur := &curs[i]
		if from >= 0 {
			cur.seek(from + 1)
		}
		if len(cur.docs) != nDocs {
			docs, ws, qw := cur.docs[cur.pos:], cur.ws[cur.pos:], cur.qw
			visited += uint64(len(docs))
			for j, doc := range docs {
				acc[doc] += qw * ws[j]
			}
			i++
			continue
		}
		// Run of adjacent dense cursors: docs[j] == j, so each suffix is a
		// sequential fused walk with no index loads, and adjacent lists can
		// share one pass over the accumulator. Within the pass each
		// document's additions happen one list at a time in ascending
		// cursor order — the canonical order — so the sums stay
		// bit-identical to the one-list-at-a-time walk.
		run := i + 1
		for run < len(curs) && len(curs[run].docs) == nDocs {
			if from >= 0 {
				curs[run].seek(from + 1)
			}
			run++
		}
		a := acc[start:]
		for ; i+3 < run; i += 4 {
			w0, q0 := curs[i].ws[start:], curs[i].qw
			w1, q1 := curs[i+1].ws[start:], curs[i+1].qw
			w2, q2 := curs[i+2].ws[start:], curs[i+2].qw
			w3, q3 := curs[i+3].ws[start:], curs[i+3].qw
			w0, w1, w2, w3 = w0[:len(a)], w1[:len(a)], w2[:len(a)], w3[:len(a)]
			// Two documents per step: each document's additions stay in
			// list order (the canonical order — bit-exactness), but the
			// two chains are independent, which hides the FP-add latency
			// the one-document-at-a-time walk stalls on.
			j := 0
			for ; j+1 < len(a); j += 2 {
				t0 := a[j] + q0*w0[j]
				t1 := a[j+1] + q0*w0[j+1]
				t0 += q1 * w1[j]
				t1 += q1 * w1[j+1]
				t0 += q2 * w2[j]
				t1 += q2 * w2[j+1]
				a[j] = t0 + q3*w3[j]
				a[j+1] = t1 + q3*w3[j+1]
			}
			if j < len(a) {
				t := a[j] + q0*w0[j]
				t += q1 * w1[j]
				t += q2 * w2[j]
				a[j] = t + q3*w3[j]
			}
			visited += uint64(4 * len(a))
		}
		for ; i < run; i++ {
			ws, qw := curs[i].ws[start:], curs[i].qw
			ws = ws[:len(a)]
			for j, w := range ws {
				a[j] += qw * w
			}
			visited += uint64(len(ws))
		}
	}
	if statsOn {
		pruneCounters.visited.Add(visited)
	}
	if k == 1 {
		// Single-best scan on raw accumulator values: the division by
		// qnorm is monotone, so it only needs to run when the raw maximum
		// improves — and when two raw values round to the same score, the
		// strict comparisons keep the earlier (lower) index, exactly the
		// heap's tie rule.
		bestRaw, bestScore, bestIdx := 0.0, 0.0, -1
		for i := start; i < nDocs; i++ {
			if a := acc[i]; a > bestRaw {
				if deadBit(dead, int32(i)) {
					continue // tombstoned: must not win or raise the bar
				}
				bestRaw = a
				if s := a / qnorm; s > bestScore {
					bestScore, bestIdx = s, i
				}
			}
		}
		if bestIdx >= 0 {
			pushMatch(&h, 1, Match{Name: c.names[bestIdx], Index: bestIdx, Score: bestScore})
		}
		return h
	}
	for i := start; i < nDocs; i++ {
		a := acc[i]
		if a == 0 || deadBit(dead, int32(i)) {
			continue
		}
		pushMatch(&h, k, Match{Name: c.names[i], Index: i, Score: a / qnorm})
	}
	return h
}
