package similarity

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// refResolve is the per-token query resolution the one-pass query
// replaced, kept as a reference: every token is looked up in c's
// dictionary, terms c does not know get query-local ids in first-
// appearance order (capped at maxUnknownIDs, past which they share one
// overflow id), and every unigram and bigram key is counted. It returns
// the known terms packed with their counts in first-appearance order, and
// the norm over all keys.
func refResolve(c *Corpus, text string) ([]uint64, float64) {
	unknown := map[string]uint64{}
	cnt := map[uint64]uint64{}
	var order []uint64
	bump := func(k uint64) {
		if _, ok := cnt[k]; !ok {
			order = append(order, k)
		}
		cnt[k] = min(cnt[k]+1, 1<<32-1)
	}
	prev, seen := uint64(0), false
	for _, t := range Tokenize(text) {
		var e uint64
		if id, ok := c.termIDs[t]; ok {
			e = uint64(id)
		} else {
			lid, ok := unknown[t]
			if !ok {
				lid = unknownBase + min(uint64(len(unknown)), maxUnknownIDs)
				unknown[t] = lid
			}
			e = lid
		}
		bump(e)
		if seen {
			bump((prev+1)<<32 | e)
		}
		prev, seen = e, true
	}
	var qts []uint64
	var sum float64
	for _, k := range order {
		v := float64(cnt[k])
		sum += v * v
		switch {
		case k < unknownBase:
			qts = append(qts, packQterm(int32(k), v))
		case k < 1<<32:
		default:
			a, b := k>>32-1, k&0xffffffff
			if a < unknownBase && b < unknownBase {
				if id, ok := c.pairIDs[a<<32|b]; ok {
					qts = append(qts, packQterm(id, v))
				}
			}
		}
	}
	return qts, math.Sqrt(sum)
}

// The query is resolved once and bound per segment; the bound terms, their
// order and the norm must equal per-token resolution against that
// segment's dictionary — for every segment of a snapshot, with and without
// the unknown-id cap overflowing, on queries with upper case, non-ASCII
// runes, invalid bytes and terms no segment knows.
func TestQueryBindMatchesPerTokenResolution(t *testing.T) {
	names, texts, _ := buildDiverse(61, 90)
	rng := rand.New(rand.NewSource(5))
	segs := buildSegmented(names, texts, splitSizes(len(texts), 7, rng))
	queries := []string{
		"",
		"   \n\t",
		texts[3],
		strings.ToUpper(texts[8]) + " Ωmega ÄÖÜ \xff\xfe K",
		texts[1][:len(texts[1])/2] + texts[2][len(texts[2])/2:],
		"unseen_a unseen_b unseen_a ; ( ) WIRE wire Wire",
	}
	for i := 0; i < 20; i++ {
		var sb strings.Builder
		for j := 0; j < 60; j++ {
			switch rng.Intn(4) {
			case 0:
				fmt.Fprintf(&sb, "fresh_%d ", rng.Intn(30))
			case 1:
				fmt.Fprintf(&sb, "SIG_%d_%d ", rng.Intn(90), rng.Intn(8))
			default:
				toks := Tokenize(texts[rng.Intn(len(texts))])
				sb.WriteString(toks[rng.Intn(len(toks))] + " ")
			}
		}
		queries = append(queries, sb.String())
	}
	old := maxUnknownIDs
	defer func() { maxUnknownIDs = old }()
	for _, limit := range []uint64{old, 3, 1, 0} {
		maxUnknownIDs = limit
		for qi, text := range queries {
			var q query
			q.resolve(text)
			for si, g := range segs {
				wantQts, wantNorm := refResolve(g.c, text)
				gotNorm, known := q.bind(g.c)
				gotQts := q.qterms(g.c, nil)
				ctx := fmt.Sprintf("cap=%d query %d segment %d", limit, qi, si)
				if gotNorm != wantNorm {
					t.Fatalf("%s: norm %v, want %v", ctx, gotNorm, wantNorm)
				}
				if !slices.Equal(gotQts, wantQts) {
					t.Fatalf("%s: bound terms\n got %v\nwant %v", ctx, gotQts, wantQts)
				}
				if !known && len(wantQts) > 0 {
					t.Fatalf("%s: segment reported unknown with %d bound terms", ctx, len(wantQts))
				}
			}
		}
	}
}

// One-document segments (the shape every small delta publish leaves
// behind) plus tombstones still match a full rebuild of the live
// documents bit for bit. Every segment sits below pruneMinDocs and the
// cross-segment threshold decides most of them by bound alone.
func TestSegmentedMatchesFullRebuildOneDocSegments(t *testing.T) {
	names, texts, _ := buildDiverse(37, 256)
	rng := rand.New(rand.NewSource(19))
	sizes := make([]int, len(texts))
	for i := range sizes {
		sizes[i] = 1
	}
	ix := NewIndex()
	for _, g := range buildSegmented(names, texts, sizes) {
		ix.Append(g)
	}
	queries := segQueries(texts, rng)
	for i := 0; i < 6; i++ {
		queries = append(queries, texts[rng.Intn(len(texts))]+"\n  wire tail_probe;\n")
	}
	assertSnapshotEquiv(t, "no tombstones", ix.Snapshot(), names, texts, queries)

	var removed, liveNames, liveTexts []string
	for i, n := range names {
		if rng.Intn(3) == 0 {
			removed = append(removed, n)
		} else {
			liveNames = append(liveNames, n)
			liveTexts = append(liveTexts, texts[i])
		}
	}
	if got := ix.Remove(removed); got != len(removed) {
		t.Fatalf("Remove = %d, want %d", got, len(removed))
	}
	assertSnapshotEquiv(t, "tombstoned", ix.Snapshot(), liveNames, liveTexts, queries)
}

// Segments are scored largest first, so an equal score found later in a
// SMALLER, earlier segment must still win on its lower global index: the
// carried threshold prunes strictly below, never at, the running best.
func TestCrossSegmentTieLowerIndexWins(t *testing.T) {
	names, texts, _ := buildDiverse(43, 200)
	dup := texts[150]
	small := NewSegmentBuilder()
	small.Add("early_other.v", texts[0][:len(texts[0])/2])
	small.Add("early_copy.v", dup)
	snap := SnapshotOf([]*Segment{small.Seal(), BuildSegment(names, texts, 1)}, nil)
	if snap.order[0] != 1 {
		t.Fatalf("segment order %v: the large segment must be scored first", snap.order)
	}
	got := snap.Best(dup)
	if got.Index != 1 || got.Name != "early_copy.v" {
		t.Fatalf("Best = %+v, want the early copy at global index 1", got)
	}
	top := snap.TopK(dup, 3)
	if len(top) < 2 || top[1].Index != 2+150 || top[0].Score != top[1].Score {
		t.Fatalf("TopK = %+v, want the tie at indices 1 and 152 in that order", top)
	}
	allNames := append([]string{"early_other.v", "early_copy.v"}, names...)
	allTexts := append([]string{texts[0][:len(texts[0])/2], dup}, texts...)
	assertSnapshotEquiv(t, "tie", snap, allNames, allTexts, []string{dup, texts[3], dup + " extra"})
}

// TestUnknownIDCapOverflow on a snapshot of several segments: the cap
// applies per segment (a term is unknown to a segment that never saw it),
// so each segment's scores must equal scoring that segment on its own,
// and the merged ranking must be theirs, ordered by (score, global index).
func TestUnknownIDCapOverflowSegmented(t *testing.T) {
	old := maxUnknownIDs
	maxUnknownIDs = 3
	defer func() { maxUnknownIDs = old }()

	names, texts, _ := buildDiverse(11, 120)
	rng := rand.New(rand.NewSource(29))
	sizes := splitSizes(len(texts), 5, rng)
	segs := buildSegmented(names, texts, sizes)
	snap := SnapshotOf(segs, nil)

	var sb strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&sb, "unseen_token_%d ", i)
		if i%5 == 0 {
			sb.WriteString(texts[7])
		}
	}
	q := sb.String()
	if m := snap.Best(q); m.Index != 7 || m.Name != names[7] {
		t.Fatalf("capped-unknowns best = %+v, want doc 7", m)
	}

	const k = 6
	var want []Match
	off := 0
	for si, g := range segs {
		for _, m := range g.c.searchTopK(q, k, searchExhaustive) {
			m.Index += off
			want = append(want, m)
		}
		off += sizes[si]
	}
	slices.SortFunc(want, func(a, b Match) int {
		if a.Score != b.Score {
			if a.Score > b.Score {
				return -1
			}
			return 1
		}
		return a.Index - b.Index
	})
	matchesEqual(t, "capped segmented", snap.TopK(q, k), want[:k])

	if got := snap.Best("only unknown words here nothing indexed"); got.Index != -1 {
		t.Fatalf("all-unknown under cap = %+v", got)
	}
}

// The carried threshold also seeds the pruned engines (k == 1 gather and
// k > 1 MaxScore) of segments large enough to use them. Near-duplicates of
// documents in every segment, cross-segment duplicates (ties) and
// tombstones must still give the full rebuild's verdicts bit for bit.
func TestCarriedThresholdIntoPrunedSegments(t *testing.T) {
	names, texts, _ := buildDiverse(71, 600)
	texts[590] = texts[20] // equal scores in the last and the first segment
	texts[400] = texts[300]
	rng := rand.New(rand.NewSource(3))
	ix := NewIndex()
	for _, g := range buildSegmented(names, texts, []int{150, 250, 200}) {
		ix.Append(g)
	}
	queries := segQueries(texts, rng)
	for _, d := range []int{20, 100, 160, 300, 420, 590} {
		queries = append(queries, texts[d], texts[d]+"\n  wire tail_probe;\n")
	}
	for i := 0; i < 4; i++ {
		queries = append(queries, diverseVerilog(rng, 10000+i))
	}
	assertSnapshotEquiv(t, "no tombstones", ix.Snapshot(), names, texts, queries)

	var removed, liveNames, liveTexts []string
	for i, n := range names {
		if i == 20 || rng.Intn(5) == 0 {
			removed = append(removed, n)
		} else {
			liveNames = append(liveNames, n)
			liveTexts = append(liveTexts, texts[i])
		}
	}
	ix.Remove(removed)
	assertSnapshotEquiv(t, "tombstoned", ix.Snapshot(), liveNames, liveTexts, queries)
}
