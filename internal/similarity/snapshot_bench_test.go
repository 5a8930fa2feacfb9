package similarity

import (
	"fmt"
	"math/rand"
	"testing"

	"freehw/internal/corpus"
)

// BenchmarkSnapshotBestSegments measures one Snapshot.Best audit over the
// same 4096 protected documents split into 1, 8, 64 or 256 equal
// segments. The segment count is fixed per sub-benchmark, so ns/op does
// not depend on b.N, and the segs axis isolates the per-segment cost of
// the query pass. Queries cycle through a fixed set of one kind each, the
// two kinds the audit service scores: near (an indexed body with its
// identifiers renamed — the copy an audit must catch) and fresh (a newly
// generated module, which matches nothing closely).
func BenchmarkSnapshotBestSegments(b *testing.B) {
	const total = 4096
	names := make([]string, total)
	texts := make([]string, total)
	for i, p := range corpus.BuildProtectedCorpus(1, total) {
		names[i], texts[i] = p.Name, p.Body
	}
	rng := rand.New(rand.NewSource(3))
	kinds := []struct {
		name    string
		queries []string
	}{{name: "near"}, {name: "fresh"}}
	for i := 0; i < 32; i++ {
		kinds[0].queries = append(kinds[0].queries, corpus.MutateIdentifiers(rng, texts[rng.Intn(total)]))
		kinds[1].queries = append(kinds[1].queries, corpus.Generate(rng, "", false).Source)
	}
	for _, nSegs := range []int{1, 8, 64, 256} {
		sizes := make([]int, nSegs)
		for i := range sizes {
			sizes[i] = total / nSegs
		}
		snap := SnapshotOf(buildSegmented(names, texts, sizes), nil)
		for _, kind := range kinds {
			b.Run(fmt.Sprintf("segs=%d/%s", nSegs, kind.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if snap.Best(kind.queries[i%len(kind.queries)]).Index < 0 {
						b.Fatal("audit found no match")
					}
				}
			})
		}
	}
}
