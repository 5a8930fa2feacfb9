package similarity

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refEncodeSections is the sort-based segment encoder EncodeSections
// replaced: dictionary entries collected from the maps and sorted by
// postings id. The on-disk format is defined by its output.
func refEncodeSections(g *Segment) [][]byte {
	c := g.c
	names := appendU32(nil, uint32(len(c.names)))
	for _, n := range c.names {
		names = appendU32(names, uint32(len(n)))
		names = append(names, n...)
	}
	type termEntry struct {
		term string
		id   int32
	}
	terms := make([]termEntry, 0, len(c.termIDs))
	for t, id := range c.termIDs {
		terms = append(terms, termEntry{t, id})
	}
	sort.Slice(terms, func(i, j int) bool { return terms[i].id < terms[j].id })
	uni := appendU32(nil, uint32(len(terms)))
	for _, e := range terms {
		uni = appendU32(uni, uint32(e.id))
		uni = appendU32(uni, uint32(len(e.term)))
		uni = append(uni, e.term...)
	}
	type pairEntry struct {
		key uint64
		id  int32
	}
	pairs := make([]pairEntry, 0, len(c.pairIDs))
	for k, id := range c.pairIDs {
		pairs = append(pairs, pairEntry{k, id})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].id < pairs[j].id })
	bi := appendU32(nil, uint32(len(pairs)))
	for _, e := range pairs {
		bi = appendU64(bi, e.key)
		bi = appendU32(bi, uint32(e.id))
	}
	post := appendU32(nil, uint32(len(c.postings)))
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

// EncodeSections walks id-indexed dictionaries instead of sorting them;
// its bytes must equal the sort-based encoder's on every kind of segment
// the system persists: batch-built, streamed deltas (including an empty
// document), merged runs with tombstones, and decoded segments.
func TestEncodeSectionsMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	names := make([]string, 90)
	texts := make([]string, len(names))
	for i := range texts {
		names[i] = fmt.Sprintf("e%d.v", i)
		texts[i] = randomDoc(rng, i)
	}
	texts[4] = ""
	built := BuildSegment(names[:60], texts[:60], 0)
	delta := NewSegmentBuilder()
	for i := 60; i < 90; i++ {
		delta.Add(names[i], texts[i])
	}
	deltaSeg := delta.Seal()
	dead := make([]uint64, 1)
	for d := 0; d < 60; d += 3 {
		dead[0] |= 1 << d
	}
	merged := MergeSegments([]*Segment{built, deltaSeg}, [][]uint64{dead, nil})
	decoded, err := DecodeSegment(merged.EncodeSections())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		seg  *Segment
	}{{"built", built}, {"delta", deltaSeg}, {"merged", merged}, {"decoded", decoded}} {
		got, want := tc.seg.EncodeSections(), refEncodeSections(tc.seg)
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%s: section %d differs from the sorted reference (%d vs %d bytes)", tc.name, i, len(got[i]), len(want[i]))
			}
		}
	}
}

// A dictionary that names one postings id twice — impossible for the
// builder or a merge — is corruption, whichever dictionaries the two
// entries sit in.
func TestDecodeRejectsSharedPostingsID(t *testing.T) {
	seg := BuildSegment([]string{"a", "b"}, []string{"alpha beta gamma", "beta delta"}, 1)
	secs := seg.EncodeSections()
	if _, err := DecodeSegment(secs); err != nil || len(seg.c.termIDs) < 2 || len(seg.c.pairIDs) == 0 {
		t.Fatalf("fixture: err=%v terms=%d pairs=%d", err, len(seg.c.termIDs), len(seg.c.pairIDs))
	}
	le := binary.LittleEndian
	firstID := secs[1][4:8] // unigram section: count, then (id, len, term) entries
	for _, tc := range []struct {
		name    string
		section int
		at      int // offset of the id field to overwrite with firstID
	}{
		{"unigram twice", 1, 4 + 8 + int(le.Uint32(secs[1][8:]))},
		{"unigram and bigram", 2, 4 + 8}, // bigram section: count, then (key, id) entries
	} {
		mut := slices.Clone(secs)
		mut[tc.section] = bytes.Clone(mut[tc.section])
		copy(mut[tc.section][tc.at:tc.at+4], firstID)
		if _, err := DecodeSegment(mut); err != ErrCorruptSnapshot {
			t.Fatalf("%s: err = %v, want ErrCorruptSnapshot", tc.name, err)
		}
	}
}
