package dedup

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestJaccardIdentical(t *testing.T) {
	a := Shingles("module counter input clk output q endmodule", 3)
	if got := Jaccard(a, a); got != 1 {
		t.Fatalf("self Jaccard = %f", got)
	}
}

func TestJaccardDisjoint(t *testing.T) {
	a := Shingles("alpha beta gamma delta epsilon zeta", 3)
	b := Shingles("one two three four five six", 3)
	if got := Jaccard(a, b); got != 0 {
		t.Fatalf("disjoint Jaccard = %f", got)
	}
}

func TestJaccardEmpty(t *testing.T) {
	e := Shingles("", 3)
	a := Shingles("x y z w", 3)
	if got := Jaccard(e, e); got != 1 {
		t.Fatalf("empty-empty = %f", got)
	}
	if got := Jaccard(e, a); got != 0 {
		t.Fatalf("empty-nonempty = %f", got)
	}
}

func randWords(rng *rand.Rand, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("w%03d", rng.Intn(500))
	}
	return out
}

// MinHash signature similarity should estimate Jaccard within tolerance.
func TestMinHashEstimatesJaccard(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewMinHasher(256, 42)
	for trial := 0; trial < 20; trial++ {
		base := randWords(rng, 300)
		mutated := make([]string, len(base))
		copy(mutated, base)
		// Mutate a fraction of words.
		for i := 0; i < trial*10; i++ {
			mutated[rng.Intn(len(mutated))] = fmt.Sprintf("mut%04d", rng.Intn(10000))
		}
		ta, tb := strings.Join(base, " "), strings.Join(mutated, " ")
		sa, sb := Shingles(ta, 5), Shingles(tb, 5)
		exact := Jaccard(sa, sb)
		est := SigSimilarity(h.Sign(sa), h.Sign(sb))
		if diff := est - exact; diff > 0.12 || diff < -0.12 {
			t.Errorf("trial %d: exact=%.3f est=%.3f", trial, exact, est)
		}
	}
}

func TestIndexExactDuplicates(t *testing.T) {
	idx := NewIndex(Options{Seed: 1})
	text := "module m (input a, output y); assign y = ~a; endmodule " +
		strings.Repeat("wire pad_signal_for_shingles; ", 20)
	r1 := idx.Add("first", text)
	if !r1.Unique {
		t.Fatal("first doc must be unique")
	}
	r2 := idx.Add("second", text)
	if r2.Unique {
		t.Fatal("exact duplicate not caught")
	}
	if r2.DupOfKey != "first" || r2.Similarity != 1 {
		t.Fatalf("dup result: %+v", r2)
	}
}

func TestIndexNearDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := randWords(rng, 400)
	idx := NewIndex(Options{Seed: 1, Threshold: 0.85})
	idx.Add("orig", strings.Join(base, " "))

	// ~2% mutation: should still be a duplicate at 0.85.
	near := make([]string, len(base))
	copy(near, base)
	for i := 0; i < 4; i++ {
		near[rng.Intn(len(near))] = "changed"
	}
	if r := idx.Add("near", strings.Join(near, " ")); r.Unique {
		t.Fatalf("near duplicate not caught (sim=%.3f)", idx.PairSimilarity(strings.Join(base, " "), strings.Join(near, " ")))
	}

	// Heavy mutation: must be unique.
	far := randWords(rng, 400)
	if r := idx.Add("far", strings.Join(far, " ")); !r.Unique {
		t.Fatalf("unrelated doc flagged as dup of %s (%.3f)", r.DupOfKey, r.Similarity)
	}
}

func TestDedupOrderPreserved(t *testing.T) {
	texts := []string{
		"aaa bbb ccc ddd eee fff ggg hhh",
		"one two three four five six seven eight",
		"aaa bbb ccc ddd eee fff ggg hhh", // dup of 0
		"nine ten eleven twelve thirteen fourteen fifteen sixteen",
	}
	kept := Dedup(texts, Options{Seed: 9})
	want := []int{0, 1, 3}
	if len(kept) != len(want) {
		t.Fatalf("kept %v", kept)
	}
	for i := range want {
		if kept[i] != want[i] {
			t.Fatalf("kept %v, want %v", kept, want)
		}
	}
}

func TestIndexDeterminism(t *testing.T) {
	texts := make([]string, 50)
	rng := rand.New(rand.NewSource(11))
	for i := range texts {
		texts[i] = strings.Join(randWords(rng, 100), " ")
	}
	// Inject duplicates.
	texts[10] = texts[3]
	texts[40] = texts[22]
	a := Dedup(texts, Options{Seed: 5})
	b := Dedup(texts, Options{Seed: 5})
	if len(a) != len(b) {
		t.Fatalf("non-deterministic: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d", i)
		}
	}
	if len(a) != 48 {
		t.Fatalf("want 48 unique, got %d", len(a))
	}
}

// Property: Jaccard is symmetric and bounded in [0,1].
func TestJaccardProperties(t *testing.T) {
	fn := func(a, b string) bool {
		sa, sb := Shingles(a, 3), Shingles(b, 3)
		j1, j2 := Jaccard(sa, sb), Jaccard(sb, sa)
		return j1 == j2 && j1 >= 0 && j1 <= 1
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: a document is always a duplicate of itself once added.
func TestIndexSelfDuplicateProperty(t *testing.T) {
	fn := func(words []string) bool {
		if len(words) == 0 {
			return true
		}
		text := strings.Join(words, " ")
		idx := NewIndex(Options{Seed: 2})
		idx.Add("a", text)
		r := idx.Add("b", text)
		return !r.Unique
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// corpusWithDups builds a synthetic corpus with exact duplicates, near
// duplicates (including duplicates-of-duplicates, which exercise the
// "only kept documents are candidates" rule), and unique documents.
func corpusWithDups(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	var out []string
	fresh := func() []string {
		words := make([]string, 120)
		for i := range words {
			words[i] = fmt.Sprintf("w%04d", rng.Intn(3000))
		}
		return words
	}
	var bases [][]string
	for len(out) < n {
		switch {
		case len(bases) == 0 || rng.Float64() < 0.4:
			b := fresh()
			bases = append(bases, b)
			out = append(out, strings.Join(b, " "))
		case rng.Float64() < 0.5:
			// Exact duplicate of a prior document.
			out = append(out, out[rng.Intn(len(out))])
		default:
			// Near duplicate of a prior base, mutation rate around the
			// threshold so some land just above and some just below.
			b := bases[rng.Intn(len(bases))]
			m := make([]string, len(b))
			copy(m, b)
			for k := 0; k < 1+rng.Intn(8); k++ {
				m[rng.Intn(len(m))] = fmt.Sprintf("mut%05d", rng.Intn(99999))
			}
			bases = append(bases, m)
			out = append(out, strings.Join(m, " "))
		}
	}
	return out
}

// oracleDedup is the LSH dedup rule by brute force: each document scans
// every kept document in order, a kept document is a candidate when the
// two share a band hash, and the document is a duplicate when its best
// exact Jaccard over the candidates reaches the threshold.
func oracleDedup(preps []Prepared, threshold float64) []AddResult {
	var kept []Prepared
	out := make([]AddResult, len(preps))
	for i, p := range preps {
		best := 0.0
		for _, k := range kept {
			shared := false
			for b := range p.Bands {
				shared = shared || p.Bands[b] == k.Bands[b]
			}
			if !shared {
				continue
			}
			if sim := Jaccard(p.Shingles, k.Shingles); sim > best {
				best = sim
			}
		}
		if best >= threshold {
			out[i] = AddResult{Similarity: best}
			continue
		}
		kept = append(kept, p)
		out[i] = AddResult{Unique: true}
	}
	return out
}

// Index keeps exactly the documents the brute-force band oracle keeps, and
// reports the same best similarity for each duplicate, on corpora dense in
// duplicates-of-duplicates and on a run of duplicates of one kept document.
func TestIndexMatchesBandOracle(t *testing.T) {
	type input struct {
		name  string
		texts []string
	}
	var inputs []input
	for _, seed := range []int64{1, 2, 3} {
		inputs = append(inputs, input{fmt.Sprintf("seed %d", seed), corpusWithDups(seed, 700)})
	}
	text := strings.Repeat("some padded verilog-ish words here ", 30)
	allDups := []string{text, text, text, text}
	inputs = append(inputs, input{"all duplicates of one", allDups})

	opt := Options{Seed: 1, Threshold: 0.85}
	for _, in := range inputs {
		name, texts := in.name, in.texts
		idx := NewIndex(opt)
		prep := idx.Preparer()
		preps := make([]Prepared, len(texts))
		var wantKeys []string
		for i, tx := range texts {
			preps[i] = prep.Prepare(tx)
		}
		want := oracleDedup(preps, idx.Threshold())
		for i := range texts {
			key := fmt.Sprintf("doc%04d", i)
			got := idx.AddPrepared(key, preps[i])
			if got.Unique != want[i].Unique || got.Similarity != want[i].Similarity {
				t.Fatalf("%s: doc %d = %+v, oracle says unique=%v similarity=%v",
					name, i, got, want[i].Unique, want[i].Similarity)
			}
			if !got.Unique && got.DupOfKey == "" {
				t.Fatalf("%s: doc %d is a duplicate of no key", name, i)
			}
			if want[i].Unique {
				wantKeys = append(wantKeys, key)
			}
		}
		if !reflect.DeepEqual(idx.Keys(), wantKeys) {
			t.Fatalf("%s: kept keys %v, oracle keeps %v", name, idx.Keys(), wantKeys)
		}
	}
	if got := Dedup(allDups, opt); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("all duplicates of one: kept %v, want [0]", got)
	}
}

func BenchmarkIndexAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	texts := make([]string, 256)
	for i := range texts {
		texts[i] = strings.Join(randWords(rng, 200), " ")
	}
	b.ResetTimer()
	idx := NewIndex(Options{Seed: 1})
	for i := 0; i < b.N; i++ {
		idx.Add("k", texts[i%len(texts)])
	}
}

func benchPrepared(b *testing.B, n int) ([]string, []Prepared, Options) {
	b.Helper()
	texts := corpusWithDups(42, n)
	opt := Options{Seed: 1}
	prep := NewPreparer(opt)
	keys := make([]string, len(texts))
	preps := make([]Prepared, len(texts))
	for i, tx := range texts {
		keys[i] = fmt.Sprintf("doc%d", i)
		preps[i] = prep.Prepare(tx)
	}
	return keys, preps, opt
}

func BenchmarkSequentialInsert(b *testing.B) {
	keys, preps, opt := benchPrepared(b, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := NewIndex(opt)
		for j := range keys {
			idx.AddPrepared(keys[j], preps[j])
		}
	}
}
