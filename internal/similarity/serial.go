package similarity

import (
	"encoding/binary"
	"errors"
	"math"
)

// Segment serialization: the sealed index structure — names, the unigram
// and bigram dictionaries, and the postings lists with their precomputed
// unit-normalized weights — flattened into four independent byte sections.
// Serializing the index rather than the source texts is what makes restart
// instant (no re-tokenization, no dictionary rebuild) and byte-identical
// (float64 weights round-trip as raw bits, so a recovered segment scores
// every query exactly like the one that was saved).
//
// The sections are deliberately free of file framing: internal/snapstore
// owns the on-disk format (magic, format version, per-section lengths and
// checksums, crash-safe rename), and this file owns only the structural
// encoding. Encoding is deterministic — dictionaries are written in
// postings-id order, not map order — so equal segments produce equal
// bytes and tests can compare encodings directly.
//
// The same four sections served as the whole-snapshot encoding before the
// index went segmented; a pre-segmentation snapshot file is therefore
// exactly one segment's sections, which is how internal/snapstore loads
// old files byte-identically.

// SnapshotSections is the number of sections Segment.EncodeSections
// produces and DecodeSegment consumes: names, unigram dictionary, bigram
// dictionary, postings.
const SnapshotSections = 4

// ErrCorruptSnapshot reports a structurally invalid section payload —
// truncated data, out-of-range ids, or trailing garbage.
var ErrCorruptSnapshot = errors.New("similarity: corrupt snapshot encoding")

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// reader is a bounds-checked little-endian cursor; every read reports
// truncation instead of panicking, so corrupted files fail cleanly.
type reader struct {
	b   []byte
	off int
	err bool
}

func (r *reader) u32() uint32 {
	if r.off+4 > len(r.b) {
		r.err = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.off+8 > len(r.b) {
		r.err = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) bytes(n int) []byte {
	if n < 0 || r.off+n > len(r.b) {
		r.err = true
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

func (r *reader) done() bool { return !r.err && r.off == len(r.b) }

// EncodeSections serializes the segment into its four structural
// sections. The result aliases nothing in the segment; it is safe to
// write while concurrent queries run, because a sealed segment is
// immutable.
func (g *Segment) EncodeSections() [][]byte {
	c := g.c

	// Section 0: document names.
	names := appendU32(nil, uint32(len(c.names)))
	for _, n := range c.names {
		names = appendU32(names, uint32(len(n)))
		names = append(names, n...)
	}

	// Sections 1 and 2: the unigram dictionary and the bigram dictionary
	// (unigram-id pair -> postings id), both in postings-id order for
	// determinism. Recovering them as id-indexed arrays, as MergeSegments
	// does, yields that order with one walk instead of two sorts.
	// DecodeSegment guarantees no postings id is claimed twice.
	terms := make([]string, len(c.postings))
	pairs := make([]uint64, len(c.postings))
	kind := make([]byte, len(c.postings)) // 0 = no entry, 1 = unigram, 2 = bigram
	uniLen := 4
	for t, id := range c.termIDs {
		terms[id], kind[id] = t, 1
		uniLen += 8 + len(t)
	}
	for k, id := range c.pairIDs {
		pairs[id], kind[id] = k, 2
	}
	uni := appendU32(make([]byte, 0, uniLen), uint32(len(c.termIDs)))
	bi := appendU32(make([]byte, 0, 4+12*len(c.pairIDs)), uint32(len(c.pairIDs)))
	for id, k := range kind {
		switch k {
		case 1:
			uni = appendU32(uni, uint32(id))
			uni = appendU32(uni, uint32(len(terms[id])))
			uni = append(uni, terms[id]...)
		case 2:
			bi = appendU64(bi, pairs[id])
			bi = appendU32(bi, uint32(id))
		}
	}

	// Section 3: postings lists — parallel doc/weight arrays, weights as
	// raw IEEE-754 bits so scoring after a reload is bit-identical.
	postLen := 4
	for i := range c.postings {
		postLen += 4 + 12*len(c.postings[i].docs)
	}
	post := appendU32(make([]byte, 0, postLen), uint32(len(c.postings)))
	for i := range c.postings {
		pl := &c.postings[i]
		post = appendU32(post, uint32(len(pl.docs)))
		for _, d := range pl.docs {
			post = appendU32(post, uint32(d))
		}
		for _, w := range pl.ws {
			post = appendU64(post, math.Float64bits(w))
		}
	}

	return [][]byte{names, uni, bi, post}
}

// EncodeSections on a single-segment, tombstone-free snapshot returns the
// segment's sections — the legacy whole-snapshot encoding. Multi-segment
// or tombstoned snapshots have no single-blob encoding (internal/snapstore
// persists them as a descriptor over per-segment files), so this panics
// for them; it exists for tests and tools that round-trip one segment.
func (s *Snapshot) EncodeSections() [][]byte {
	if len(s.segs) != 1 || s.segs[0].dead != nil {
		panic("similarity: EncodeSections requires a single tombstone-free segment")
	}
	return s.segs[0].seg.EncodeSections()
}

// DecodeSnapshot reconstructs a single-segment snapshot from
// EncodeSections output — the shape every pre-segmentation snapshot file
// decodes to.
func DecodeSnapshot(sections [][]byte) (*Snapshot, error) {
	seg, err := DecodeSegment(sections)
	if err != nil {
		return nil, err
	}
	return newSnapshot([]*Segment{seg}, nil), nil
}

// DecodeSegment reconstructs a sealed segment from EncodeSections
// output. Every structural invariant is re-validated — section count,
// lengths, id ranges, postings/dictionary agreement — so a section that
// passed its checksum but was encoded by a buggy or hostile writer still
// fails with ErrCorruptSnapshot instead of producing an index that
// panics at query time.
func DecodeSegment(sections [][]byte) (*Segment, error) {
	if len(sections) != SnapshotSections {
		return nil, ErrCorruptSnapshot
	}
	c := &Corpus{termIDs: map[string]int32{}, pairIDs: map[uint64]int32{}, sealed: true}

	// Names.
	r := &reader{b: sections[0]}
	nNames := int(r.u32())
	if r.err || nNames < 0 || nNames > len(sections[0]) {
		return nil, ErrCorruptSnapshot
	}
	c.names = make([]string, 0, nNames)
	for i := 0; i < nNames; i++ {
		c.names = append(c.names, string(r.bytes(int(r.u32()))))
	}
	if !r.done() {
		return nil, ErrCorruptSnapshot
	}

	// Postings first: the dictionaries validate their ids against its size.
	r = &reader{b: sections[3]}
	nPost := int(r.u32())
	if r.err || nPost < 0 || nPost > len(sections[3]) {
		return nil, ErrCorruptSnapshot
	}
	c.postings = make([]postingList, nPost)
	for i := 0; i < nPost; i++ {
		n := int(r.u32())
		if r.err || n < 0 || n > len(sections[3]) {
			return nil, ErrCorruptSnapshot
		}
		pl := &c.postings[i]
		pl.docs = make([]int32, n)
		pl.ws = make([]float64, n)
		for j := 0; j < n; j++ {
			d := int32(r.u32())
			if int(d) < 0 || int(d) >= len(c.names) {
				return nil, ErrCorruptSnapshot
			}
			// Doc-ordered lists are what the DAAT cursors and the pruned
			// search's tie rule rely on; the builder always writes them
			// ascending, so anything else is corruption.
			if j > 0 && d <= pl.docs[j-1] {
				return nil, ErrCorruptSnapshot
			}
			pl.docs[j] = d
		}
		for j := 0; j < n; j++ {
			pl.ws[j] = math.Float64frombits(r.u64())
		}
		// Block-max metadata is derived state and deliberately not
		// serialized (the format — and every old snapshot file — stays
		// valid); rebuild it deterministically from the weights.
		pl.rebuildBlockMeta()
	}
	if !r.done() {
		return nil, ErrCorruptSnapshot
	}

	// Dictionaries. Every postings id belongs to at most one entry across
	// both: the builder and merge assign each id once, and the encoder
	// relies on it.
	claimed := make([]bool, nPost)
	claim := func(id int32) bool {
		if int(id) < 0 || int(id) >= nPost || claimed[id] {
			return false
		}
		claimed[id] = true
		return true
	}

	// Unigram dictionary.
	r = &reader{b: sections[1]}
	nTerms := int(r.u32())
	if r.err || nTerms < 0 || nTerms > len(sections[1]) {
		return nil, ErrCorruptSnapshot
	}
	for i := 0; i < nTerms; i++ {
		id := int32(r.u32())
		term := string(r.bytes(int(r.u32())))
		if r.err || !claim(id) {
			return nil, ErrCorruptSnapshot
		}
		if _, dup := c.termIDs[term]; dup {
			return nil, ErrCorruptSnapshot
		}
		c.termIDs[term] = id
	}
	if !r.done() {
		return nil, ErrCorruptSnapshot
	}

	// Bigram dictionary.
	r = &reader{b: sections[2]}
	nPairs := int(r.u32())
	if r.err || nPairs < 0 || nPairs > len(sections[2]) {
		return nil, ErrCorruptSnapshot
	}
	for i := 0; i < nPairs; i++ {
		key := r.u64()
		id := int32(r.u32())
		if r.err || !claim(id) {
			return nil, ErrCorruptSnapshot
		}
		if _, dup := c.pairIDs[key]; dup {
			return nil, ErrCorruptSnapshot
		}
		c.pairIDs[key] = id
	}
	if !r.done() {
		return nil, ErrCorruptSnapshot
	}

	c.buildByteIDs()
	return &Segment{c: c}, nil
}
