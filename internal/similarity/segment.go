package similarity

// Segmented index layer (PR 9). A Segment is an immutable, sealed posting
// structure over a contiguous run of documents — exactly a sealed Corpus
// plus a storage identity. A Snapshot (snapshot.go) is an ordered list of
// segments with tombstone bitmaps; publishing a delta means building ONE
// new segment from the added documents (O(delta), not O(corpus)) and
// appending it, and removing documents means setting tombstone bits —
// the existing segments are never touched. Background merges (merge.go)
// compact adjacent segments without the source texts.
//
// Scoring stays bit-identical to a single-segment full rebuild because
// the canonical accumulation order is a property of the query alone (the
// query's first-appearance term order — see query): a document's
// dot product sums the same float64s in the same sequence no matter which
// dictionary its postings live under.

// Segment is one immutable slice of the corpus. The zero id means "not
// yet assigned": internal/snapstore assigns a store-unique id the first
// time the segment is persisted, and the id never changes afterwards.
type Segment struct {
	c  *Corpus
	id uint64
}

// ID returns the segment's storage identity (0 = never persisted).
func (g *Segment) ID() uint64 { return g.id }

// SetID assigns the storage identity, once. Re-setting the same id is a
// no-op; changing an assigned id panics — segment files are immutable and
// content-addressed by id, so a changed id would alias two contents.
func (g *Segment) SetID(id uint64) {
	if id == 0 {
		panic("similarity: segment id 0 is reserved for unassigned")
	}
	if g.id != 0 && g.id != id {
		panic("similarity: segment id reassigned")
	}
	g.id = id
}

// Docs returns the number of documents in the segment (including any the
// enclosing snapshot has tombstoned — tombstones live above the segment).
func (g *Segment) Docs() int { return len(g.c.names) }

// SegmentBuilder accumulates documents into a new segment with O(document)
// work per Add: tokenize, intern against the segment-local dictionary,
// append postings. Peak memory is the segment's own index — the builder
// never retains document text — which is what lets the serving layer
// stream an NDJSON upload of any size straight into a bounded segment.
// Single-writer; Seal freezes it for concurrent readers.
type SegmentBuilder struct {
	c *Corpus
}

// NewSegmentBuilder returns an empty builder.
func NewSegmentBuilder() *SegmentBuilder {
	return &SegmentBuilder{c: &Corpus{termIDs: map[string]int32{}, pairIDs: map[uint64]int32{}}}
}

// Add appends one document. O(len(text)).
func (b *SegmentBuilder) Add(name, text string) { b.c.Add(name, text) }

// Len returns the number of documents added so far.
func (b *SegmentBuilder) Len() int { return b.c.Len() }

// Seal freezes the builder into an immutable segment. Any later Add
// panics.
func (b *SegmentBuilder) Seal() *Segment { return b.c.sealSegment() }

// sealSegment freezes a corpus and wraps it as a segment.
func (c *Corpus) sealSegment() *Segment {
	c.sealed = true
	if c.byteIDs == nil {
		c.buildByteIDs()
	}
	return &Segment{c: c}
}

// BuildSegment tokenizes texts with bounded concurrency and seals them
// into one segment — the batch counterpart of SegmentBuilder.Add, used by
// full (replace-mode) publishes. See NewCorpusWorkers.
func BuildSegment(names, texts []string, workers int) *Segment {
	return NewCorpusWorkers(names, texts, workers).sealSegment()
}
