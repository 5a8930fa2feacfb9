// Package similarity implements the paper's copyright-infringement metric
// (§III-A): generated code is compared against a corpus of copyright-
// protected files using cosine similarity over term-frequency vectors; a
// score of 0.8 or higher marks the generation as originating from the
// protected corpus.
//
// Corpus lookups run on an inverted index (term -> postings with
// precomputed unit-normalized weights) with accumulator-based scoring, so a
// query touches only the postings of its own terms instead of intersecting
// its term map against every document vector. Cosine and NewVector remain
// as the reference implementation; index_test.go proves the index
// equivalent to a brute-force cosine scan on random corpora.
package similarity

import (
	"hash/maphash"
	"math"
	"strings"
	"unicode/utf8"

	"freehw/internal/par"
)

// DefaultThreshold is the paper's violation threshold.
const DefaultThreshold = 0.8

// Vector is a sparse TF vector keyed by term hash, pre-normalized to unit
// length at construction.
type Vector struct {
	terms map[string]float64
	norm  float64
}

// tokensRaw streams the raw comparison terms to fn without materializing
// a slice or lowercasing: word tokens are reported verbatim with a flag
// saying whether they carry upper case (word bytes are pure ASCII, so
// lowering is a byte map the caller can apply into scratch). Non-ASCII
// runes are lowered here — they are rare enough that the allocation does
// not matter — and reported with hasUpper=false.
func tokensRaw(text string, fn func(tok string, hasUpper bool)) {
	i := 0
	n := len(text)
	isWord := func(c byte) bool {
		return c == '_' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '\''
	}
	for i < n {
		c := text[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case isWord(c):
			start := i
			hasUpper := false
			for i < n && isWord(text[i]) {
				if text[i] >= 'A' && text[i] <= 'Z' {
					hasUpper = true
				}
				i++
			}
			fn(text[start:i], hasUpper)
		case c < utf8.RuneSelf:
			fn(text[i:i+1], false)
			i++
		default:
			r, size := utf8.DecodeRuneInString(text[i:])
			if r == utf8.RuneError && size <= 1 {
				fn(text[i:i+1], false) // invalid byte, kept verbatim
				i++
				break
			}
			fn(strings.ToLower(text[i:i+size]), false)
			i += size
		}
	}
}

// tokens streams Tokenize's terms to fn without materializing the slice —
// the zero-allocation core the indexing path iterates (substrings share
// the input's backing array; ToLower only allocates when a token actually
// carries upper case). For pure-ASCII word tokens strings.ToLower is
// exactly the A–Z byte map, so this emits the same terms the query path
// resolves through its scratch-buffer lowering.
func tokens(text string, fn func(string)) {
	tokensRaw(text, func(t string, hasUpper bool) {
		if hasUpper {
			t = strings.ToLower(t)
		}
		fn(t)
	})
}

// Tokenize splits code into comparison terms: identifiers/keywords, numbers,
// and operator glyphs. Whitespace and formatting differences vanish, so
// reformatted copies still match. Non-ASCII runes (comments, exotic
// identifiers) are emitted whole, one term per rune — splitting them into
// bytes would make every multi-byte script share continuation-byte terms
// and spuriously correlate unrelated files. Invalid UTF-8 bytes stay
// single-byte terms.
func Tokenize(text string) []string {
	var out []string
	tokens(text, func(t string) { out = append(out, t) })
	return out
}

// termCounts builds the unigram+bigram term frequencies of text. order
// lists the distinct terms in first-appearance order, giving every
// consumer a deterministic iteration sequence.
func termCounts(text string) (counts map[string]float64, order []string) {
	toks := Tokenize(text)
	counts = make(map[string]float64, len(toks)*2)
	order = make([]string, 0, len(toks)*2)
	bump := func(t string) {
		if _, ok := counts[t]; !ok {
			order = append(order, t)
		}
		counts[t]++
	}
	for i, t := range toks {
		bump(t)
		if i+1 < len(toks) {
			bump(t + "\x00" + toks[i+1])
		}
	}
	return counts, order
}

func normOf(counts map[string]float64) float64 {
	var sum float64
	for _, f := range counts {
		sum += f * f //freehw:nolint mapord -- term counts are integer-valued; float64 sums of small ints are exact in any order
	}
	return math.Sqrt(sum)
}

// NewVector builds a unit-normalized TF vector over word unigrams and
// bigrams. Bigrams give the metric sensitivity to local structure so that
// different modules built from the same keyword vocabulary do not collide.
func NewVector(text string) Vector {
	counts, _ := termCounts(text)
	return Vector{terms: counts, norm: normOf(counts)}
}

// Cosine returns the cosine similarity in [0,1].
func Cosine(a, b Vector) float64 {
	if a.norm == 0 || b.norm == 0 {
		return 0
	}
	small, large := a.terms, b.terms
	if len(small) > len(large) {
		small, large = large, small
	}
	var dot float64
	for t, f := range small {
		if g, ok := large[t]; ok {
			dot += f * g //freehw:nolint mapord -- raw counts are integers, products and sums stay exact in any order
		}
	}
	return dot / (a.norm * b.norm)
}

// postingList holds one term's postings as parallel arrays — documents and
// tf(term, doc)/norm(doc) weights — so the accumulator walk streams 12
// packed bytes per posting instead of a padded 16-byte struct, and a dot
// product against raw query counts needs only the query norm at the end.
//
// Postings are always in strictly ascending doc order (documents index in
// insertion order), which makes every list a ready-made DAAT cursor. On
// top of that order the list carries block-max metadata: tmax is the
// largest weight anywhere in the list and bmax[b] the largest weight in
// block b of blockSize consecutive postings. Both are maintained
// incrementally by add — O(1) per posting, valid at every instant — so
// batch builds, incremental Add, and snapshot decode all share one code
// path and there is no seal-time rebuild for a concurrent reader to race.
// The metadata is derived state: serialization intentionally omits it
// (DecodeSnapshot reconstructs it), keeping the snapshot format unchanged.
type postingList struct {
	docs []int32
	ws   []float64
	bmax []float64 // per-block max weight, block b covers postings [b*blockSize, (b+1)*blockSize)
	tmax float64   // max weight in the whole list
}

func (pl *postingList) add(doc int32, w float64) {
	if len(pl.docs)&blockMask == 0 {
		pl.bmax = append(pl.bmax, w)
	} else if b := len(pl.bmax) - 1; w > pl.bmax[b] {
		pl.bmax[b] = w
	}
	if w > pl.tmax {
		pl.tmax = w
	}
	pl.docs = append(pl.docs, doc)
	pl.ws = append(pl.ws, w)
}

// rebuildBlockMeta recomputes bmax/tmax from the weights — the decode-time
// counterpart of add's incremental maintenance, producing identical
// metadata for identical weights.
func (pl *postingList) rebuildBlockMeta() {
	pl.bmax = pl.bmax[:0]
	pl.tmax = 0
	for j, w := range pl.ws {
		if j&blockMask == 0 {
			pl.bmax = append(pl.bmax, w)
		} else if b := len(pl.bmax) - 1; w > pl.bmax[b] {
			pl.bmax[b] = w
		}
		if w > pl.tmax {
			pl.tmax = w
		}
	}
}

// Corpus is an indexed collection of protected documents. Unigram terms
// are interned as int32 postings ids; bigrams are keyed by the pair of
// their unigram ids, so neither indexing nor querying ever materializes a
// concatenated bigram string — the dominant cost of the pre-PR-5 query
// path. A Corpus under construction is single-writer: Add must not race
// with reads. Seal it into a Snapshot for concurrent serving.
type Corpus struct {
	names    []string
	termIDs  map[string]int32 // unigram term -> postings id
	pairIDs  map[uint64]int32 // unigram id pair -> bigram postings id
	byteIDs  []int32          // single-byte term -> id (-1 absent); sealed only
	postings []postingList    // unigrams and bigrams share one id space
	sealed   bool
}

// buildByteIDs precomputes the dictionary ids of all 256 single-byte
// terms. Verilog text is punctuation-dense — `;`, `(`, `=`, `,` are a
// large share of every query's tokens — and a direct table turns each of
// those lookups into one array read instead of a string-map probe. Built
// only when the corpus seals (the dictionary is frozen from then on);
// an unsealed corpus keeps the plain map path.
func (c *Corpus) buildByteIDs() {
	t := make([]int32, 256)
	var buf [1]byte
	for i := range t {
		buf[0] = byte(i)
		if id, ok := c.termIDs[string(buf[:])]; ok {
			t[i] = id
		} else {
			t[i] = -1
		}
	}
	c.byteIDs = t
}

// NewCorpus builds a corpus; names and texts run in parallel. See
// NewCorpusWorkers.
func NewCorpus(names, texts []string) *Corpus {
	return NewCorpusWorkers(names, texts, 0)
}

// NewCorpusWorkers builds a corpus with bounded concurrency (workers <= 0
// means GOMAXPROCS). Per-document tokenization fans out; dictionary
// interning and index insertion stay sequential in document order, so the
// built index is identical regardless of worker count.
func NewCorpusWorkers(names, texts []string, workers int) *Corpus {
	c := &Corpus{termIDs: map[string]int32{}, pairIDs: map[uint64]int32{}}
	tokLists := par.Map(workers, len(texts), func(i int) []string {
		return Tokenize(texts[i])
	})
	for i, toks := range tokLists {
		name := ""
		if i < len(names) {
			name = names[i]
		}
		c.addToks(name, toks)
		tokLists[i] = nil // release each document's tokens as it lands
	}
	return c
}

// Add appends one document to the index.
func (c *Corpus) Add(name, text string) {
	c.addToks(name, Tokenize(text))
}

// uniID interns a unigram term, assigning the next postings id on first
// sight.
func (c *Corpus) uniID(t string) int32 {
	id, ok := c.termIDs[t]
	if !ok {
		id = int32(len(c.postings))
		c.termIDs[t] = id
		c.postings = append(c.postings, postingList{})
	}
	return id
}

// pairKey packs two unigram ids into the bigram dictionary key.
func pairKey(a, b int32) uint64 {
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// pairID interns a bigram by its unigram id pair.
func (c *Corpus) pairID(a, b int32) int32 {
	k := pairKey(a, b)
	id, ok := c.pairIDs[k]
	if !ok {
		id = int32(len(c.postings))
		c.pairIDs[k] = id
		c.postings = append(c.postings, postingList{})
	}
	return id
}

func (c *Corpus) addToks(name string, toks []string) {
	if c.sealed {
		panic("similarity: Add on a sealed Corpus")
	}
	doc := int32(len(c.names))
	c.names = append(c.names, name)
	if len(toks) == 0 {
		return // empty document: no postings, unreachable by any query
	}
	tids := make([]int32, len(toks))
	for i, t := range toks {
		tids[i] = c.uniID(t)
	}
	counts := make(map[int32]float64, 2*len(toks))
	order := make([]int32, 0, 2*len(toks))
	bump := func(id int32) {
		if _, ok := counts[id]; !ok {
			order = append(order, id)
		}
		counts[id]++
	}
	for i, id := range tids {
		bump(id)
		if i+1 < len(tids) {
			bump(c.pairID(id, tids[i+1]))
		}
	}
	// Counts are integers, so the norm is exact regardless of sum order.
	var sum float64
	for _, v := range counts {
		sum += v * v //freehw:nolint mapord -- integer counts, exact in any order (see comment above)
	}
	norm := math.Sqrt(sum)
	for _, id := range order {
		c.postings[id].add(doc, counts[id]/norm)
	}
}

// Len returns the number of indexed documents.
func (c *Corpus) Len() int { return len(c.names) }

// Match is the best corpus match for a query.
type Match struct {
	Name  string
	Index int
	Score float64
}

// unknownBase is the first effective id a query term absent from a
// segment's dictionary receives in the capped-norm computation (corpus
// ids are int32, so they stay below).
const unknownBase = uint64(1) << 31

// maxUnknownIDs caps how many distinct query terms unknown to a segment
// receive their own effective id. Unigram effective ids must stay strictly
// below 2^32-1 or a bigram key (prev+1)<<32|e would overflow into — or
// wrap past — the bigram key range and collide with unrelated terms.
// Terms beyond the cap share one overflow id: for such degenerate queries
// (billions of distinct unknown terms) the query norm merges their counts,
// which can only lower reported scores, never corrupt the key space. A
// variable, not a const, so tests can lower it.
var maxUnknownIDs = uint64(1) << 30

// A bound query term packs a postings id (upper 32 bits) and its integer
// query count (lower 32 bits) into one uint64 — one word per term, no
// interface or closure per comparison.
func qtermID(qt uint64) int32  { return int32(qt >> 32) }
func qtermW(qt uint64) float64 { return float64(uint32(qt)) }

// packQterm clamps the count into the packed field's uint32 range instead
// of letting uint32(float64) truncate: a count beyond 2^32-1 (or below 0)
// would otherwise wrap to an arbitrary small weight — or, worse, leak into
// the id bits — for adversarially repetitive queries.
func packQterm(id int32, w float64) uint64 {
	if !(w > 0) {
		w = 0
	} else if w >= 1<<32 {
		w = 1<<32 - 1
	}
	return uint64(uint32(id))<<32 | uint64(uint32(w))
}

// pairTab is a reusable open-addressed table from a query's bigram keys
// to their positions in query.keys. used lists the occupied slots, so a
// reset costs the query's distinct bigrams, not the table's capacity.
type pairTab struct {
	keys []uint64
	pos  []int32 // position + 1 (0 = empty)
	used []int32
}

// find returns k's position, entering it at position next on first sight
// (fresh reports that).
func (t *pairTab) find(k uint64, next int32) (pos int32, fresh bool) {
	if len(t.used)*2 >= len(t.keys) {
		t.grow()
	}
	mask := uint64(len(t.keys) - 1)
	for i := (k * 0x9e3779b97f4a7c15) >> 32 & mask; ; i = (i + 1) & mask {
		if t.pos[i] == 0 {
			t.keys[i], t.pos[i] = k, next+1
			t.used = append(t.used, int32(i))
			return next, true
		}
		if t.keys[i] == k {
			return t.pos[i] - 1, false
		}
	}
}

// grow doubles the table (1024 slots to start).
func (t *pairTab) grow() {
	oldKeys, oldPos := t.keys, t.pos
	t.keys = make([]uint64, max(1024, 2*len(oldKeys)))
	t.pos = make([]int32, len(t.keys))
	mask := uint64(len(t.keys) - 1)
	for j, s := range t.used {
		k := oldKeys[s]
		i := (k * 0x9e3779b97f4a7c15) >> 32 & mask
		for t.pos[i] != 0 {
			i = (i + 1) & mask
		}
		t.keys[i], t.pos[i] = k, oldPos[s]
		t.used[j] = int32(i)
	}
}

func (t *pairTab) reset() {
	for _, s := range t.used {
		t.pos[s] = 0
	}
	t.used = t.used[:0]
}

// termSeed keys the query-local term table's hash.
var termSeed = maphash.MakeSeed()

// query is a query text resolved once, independent of any dictionary: its
// distinct unigram terms in first-appearance order, and its distinct
// unigram and bigram keys with their counts, also in first-appearance
// order. That order is the canonical accumulation order every scoring
// path shares — a property of the QUERY alone, not of the dictionary it
// binds to — so a document's dot product sums the same float64s in the
// same sequence whether its postings live in one big corpus or in a small
// segment. That is what keeps segmented scoring (see Snapshot) bit-
// identical to a single-segment full rebuild, and what lets a snapshot of
// many segments tokenize and count each query exactly once: binding to a
// segment (bind) costs one dictionary lookup per distinct term.
type query struct {
	arena []byte   // distinct unigram terms, lowered, back to back
	ends  []int    // term l is arena[ends[l-1]:ends[l]] (from 0 for l == 0)
	keys  []uint64 // unigram l is key l; bigram (a, b) is key (a+1)<<32 | b
	cnts  []uint32 // saturating occurrence counts, parallel to keys
	norm  float64  // over every key, whether a segment knows it or not
	uslot []int32  // unigram l -> position of its key in keys

	pairs  pairTab    // bigram key -> position in keys
	byByte [256]int32 // single-byte term -> l+1 (0 = unseen)
	byTerm []int32    // open-addressed multi-byte term table: l+1 (0 = empty)
	slots  []int32    // occupied byTerm slots, for reset
	ids    []int32    // bind scratch: term l -> segment postings id (-1 = absent)
}

func (q *query) term(l int32) []byte {
	lo := 0
	if l > 0 {
		lo = q.ends[l-1]
	}
	return q.arena[lo:q.ends[l]]
}

// newTerm closes the term whose bytes end the arena and returns its id.
func (q *query) newTerm() int32 {
	q.ends = append(q.ends, len(q.arena))
	return int32(len(q.ends) - 1)
}

// intern returns the id of the multi-byte term just appended at
// arena[start:], keeping it as a new term on first sight and dropping the
// copy otherwise.
func (q *query) intern(start int) int32 {
	if len(q.slots)*2 >= len(q.byTerm) {
		q.growTerms()
	}
	t := q.arena[start:]
	mask := uint64(len(q.byTerm) - 1)
	for i := maphash.Bytes(termSeed, t) & mask; ; i = (i + 1) & mask {
		v := q.byTerm[i]
		if v == 0 {
			l := q.newTerm()
			q.byTerm[i] = l + 1
			q.slots = append(q.slots, int32(i))
			return l
		}
		if string(q.term(v-1)) == string(t) {
			q.arena = q.arena[:start]
			return v - 1
		}
	}
}

// growTerms doubles the term table (1024 slots to start).
func (q *query) growTerms() {
	old := q.byTerm
	q.byTerm = make([]int32, max(1024, 2*len(old)))
	mask := uint64(len(q.byTerm) - 1)
	for j, s := range q.slots {
		v := old[s]
		i := maphash.Bytes(termSeed, q.term(v-1)) & mask
		for q.byTerm[i] != 0 {
			i = (i + 1) & mask
		}
		q.byTerm[i] = v
		q.slots[j] = int32(i)
	}
}

// resolve tokenizes and counts text into q, replacing whatever q held.
// Word tokens are lowered into the arena as they are copied, so no token
// allocates; a repeated token's copy is dropped again by intern.
func (q *query) resolve(text string) {
	q.arena, q.ends, q.keys, q.cnts, q.uslot = q.arena[:0], q.ends[:0], q.keys[:0], q.cnts[:0], q.uslot[:0]
	clear(q.byByte[:])
	for _, s := range q.slots {
		q.byTerm[s] = 0
	}
	q.slots = q.slots[:0]
	q.pairs.reset()
	// count bumps the key at position i, saturating at the packed-count
	// ceiling instead of wrapping.
	count := func(i int32) {
		if q.cnts[i] != ^uint32(0) {
			q.cnts[i]++
		}
	}
	prev := int32(-1)
	tokensRaw(text, func(t string, hasUpper bool) {
		var l int32
		if len(t) == 1 {
			ch := t[0]
			if hasUpper {
				ch += 'a' - 'A' // a 1-byte token with upper IS a single A-Z letter
			}
			if l = q.byByte[ch] - 1; l < 0 {
				q.arena = append(q.arena, ch)
				l = q.newTerm()
				q.byByte[ch] = l + 1
			}
		} else {
			start := len(q.arena)
			if hasUpper {
				for i := 0; i < len(t); i++ {
					ch := t[i]
					if ch >= 'A' && ch <= 'Z' {
						ch += 'a' - 'A'
					}
					q.arena = append(q.arena, ch)
				}
			} else {
				q.arena = append(q.arena, t...)
			}
			l = q.intern(start)
		}
		// Unigram l's key is l itself, entered when the term is new.
		if int(l) == len(q.uslot) {
			q.uslot = append(q.uslot, int32(len(q.keys)))
			q.keys = append(q.keys, uint64(l))
			q.cnts = append(q.cnts, 1)
		} else {
			count(q.uslot[l])
		}
		if prev >= 0 {
			k := uint64(prev+1)<<32 | uint64(l)
			if i, fresh := q.pairs.find(k, int32(len(q.keys))); fresh {
				q.keys = append(q.keys, k)
				q.cnts = append(q.cnts, 1)
			} else {
				count(i)
			}
		}
		prev = l
	})
	var sum float64
	for _, v := range q.cnts {
		sum += float64(v) * float64(v) // integer counts: exact in any order
	}
	q.norm = math.Sqrt(sum)
}

// bind looks q's distinct terms up in one segment's dictionary, filling
// q.ids, and returns the query norm to score that segment with — the norm
// over ALL query terms, known to the segment or not (see cappedNorm for
// the one exception). known reports whether the segment knows any term;
// when it does not, no document in it can match.
func (q *query) bind(c *Corpus) (qnorm float64, known bool) {
	ids := q.ids[:0]
	var unknown uint64
	for l := range q.ends {
		t := q.term(int32(l))
		id := int32(-1)
		if len(t) == 1 && c.byteIDs != nil {
			id = c.byteIDs[t[0]]
		} else if v, ok := c.termIDs[string(t)]; ok {
			id = v
		}
		if id < 0 {
			unknown++
		}
		ids = append(ids, id)
	}
	q.ids = ids
	qnorm = q.norm
	if unknown > maxUnknownIDs {
		qnorm = q.cappedNorm()
	}
	return qnorm, unknown < uint64(len(ids))
}

// bound returns an upper bound on any document's dot product with the
// query in the segment bind last looked at, and the number of products
// behind it, from the binding alone — no bigram lookup, no postings read.
// A document's weights are unit-normalized, so by Cauchy–Schwarz its dot
// product is at most the norm of the query's counts over the keys the
// segment may hold: the unigrams it knows and the bigrams of two known
// unigrams. Near-duplicate audits carry identifiers no other segment
// knows, which puts this bound below their threshold in most segments.
func (q *query) bound() (ub float64, terms int) {
	ids := q.ids
	var sq float64
	for i, k := range q.keys {
		if k < 1<<32 {
			if ids[k] < 0 {
				continue
			}
		} else if ids[k>>32-1] < 0 || ids[k&0xffffffff] < 0 {
			continue
		}
		w := float64(q.cnts[i])
		sq += w * w
		terms++
	}
	return math.Sqrt(sq), terms
}

// qterms returns the query terms the segment bind last looked at holds,
// packed with their counts, in canonical order. A term the segment has
// never seen cannot appear in any of its bigrams either, so such bigrams
// are skipped without a lookup. qts reuses buf's capacity.
func (q *query) qterms(c *Corpus, buf []uint64) []uint64 {
	ids := q.ids
	qts := buf[:0]
	for i, k := range q.keys {
		if k < 1<<32 {
			if id := ids[k]; id >= 0 {
				qts = append(qts, packQterm(id, float64(q.cnts[i])))
			}
			continue
		}
		a, b := ids[k>>32-1], ids[k&0xffffffff]
		if a >= 0 && b >= 0 {
			if id, ok := c.pairIDs[pairKey(a, b)]; ok {
				qts = append(qts, packQterm(id, float64(q.cnts[i])))
			}
		}
	}
	return qts
}

// cappedNorm is the query norm when more than maxUnknownIDs terms are
// unknown to the bound segment: unknown terms past the cap share one
// overflow id, so their unigram keys — and the bigram keys they form —
// merge counts before squaring. Uses the ids bind just filled.
func (q *query) cappedNorm() float64 {
	eff := make([]uint64, len(q.ids))
	var rank uint64
	for l, id := range q.ids {
		if id >= 0 {
			eff[l] = uint64(id)
			continue
		}
		eff[l] = unknownBase + min(rank, maxUnknownIDs)
		rank++
	}
	merged := make(map[uint64]uint64, len(q.keys))
	var order []uint64
	for i, k := range q.keys {
		var e uint64
		if k < 1<<32 {
			e = eff[k]
		} else {
			e = (eff[k>>32-1]+1)<<32 | eff[k&0xffffffff]
		}
		if _, ok := merged[e]; !ok {
			order = append(order, e)
		}
		merged[e] = min(merged[e]+uint64(q.cnts[i]), 1<<32-1)
	}
	var sum float64
	for _, e := range order {
		v := float64(merged[e])
		sum += v * v
	}
	return math.Sqrt(sum)
}

// Best returns the closest corpus document to the query text, or
// Match{Name: "", Index: -1, Score: 0} when nothing scores above zero —
// the documented no-match value callers must check before using Index.
// Ties resolve to the lowest document index.
func (c *Corpus) Best(text string) Match {
	if ms := c.searchTopK(text, 1, searchAuto); len(ms) > 0 {
		return ms[0]
	}
	return Match{Index: -1}
}

// matchWorse orders matches weakest-first: lower score, then higher index
// (ties keep the lower document index).
func matchWorse(a, b Match) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Index > b.Index
}

// matchHeap is a bounded min-heap whose root is the weakest kept match
// (see pushMatch).
type matchHeap []Match

// TopK returns the k closest matches, best first (score descending, index
// ascending on ties), using a bounded heap instead of sorting every score.
// Only documents that share at least one term with the query qualify: a
// zero cosine is "no match", so the result holds min(k, matching docs)
// entries rather than padding with arbitrary low-index corpus files.
func (c *Corpus) TopK(text string, k int) []Match {
	return c.searchTopK(text, k, searchAuto)
}

// searchTopK scores the corpus as a one-segment snapshot: Corpus and
// Snapshot share one query pass (see searchSegs). Tests force mode to
// compare the pruned and exhaustive paths bit-for-bit.
func (c *Corpus) searchTopK(text string, k, mode int) []Match {
	seg := Segment{c: c}
	segs := [1]snapSeg{{seg: &seg, live: len(c.names)}}
	return searchSegs(segs[:], []int32{0}, text, k, mode, nil)
}
