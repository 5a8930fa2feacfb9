package main

import (
	"encoding/json"
	"fmt"
	"math"

	"freehw/internal/par"
	"freehw/internal/serve"
	"freehw/internal/similarity"
)

// oracle answers audits by brute force — similarity.NewVector and Cosine
// against every live document — sharing no code with the index.
type oracle struct {
	vecs []similarity.Vector
	pos  map[string]int // pool position by document name
}

func newOracle(in *auditInputs) *oracle {
	o := &oracle{vecs: make([]similarity.Vector, len(in.bodies)), pos: make(map[string]int, len(in.names))}
	par.ForEach(0, len(in.bodies), func(i int) { o.vecs[i] = similarity.NewVector(in.bodies[i]) })
	for i, n := range in.names {
		o.pos[n] = i
	}
	return o
}

// scoreTol is the float tolerance the repo's own scoring-equivalence
// tests allow between the index and the cosine oracle.
const scoreTol = 1e-9

// check verifies one audit response against the documents live at its
// corpus version: pool range [lo, hi).
func (o *oracle) check(text string, lo, hi int, body []byte) error {
	var resp serve.AuditResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("bad audit response: %v", err)
	}
	if resp.CorpusLen != hi-lo {
		return fmt.Errorf("corpus_len %d at version %d, want %d", resp.CorpusLen, resp.CorpusVersion, hi-lo)
	}
	q := similarity.NewVector(text)
	top := 0.0
	for i := lo; i < hi; i++ {
		top = math.Max(top, similarity.Cosine(q, o.vecs[i]))
	}
	if resp.Best == nil {
		if top > 0 || !resp.NoMatch {
			return fmt.Errorf("no best match reported, oracle best %.6f", top)
		}
		return nil
	}
	i, ok := o.pos[resp.Best.Name]
	if !ok || i < lo || i >= hi {
		return fmt.Errorf("best %q is not live at version %d", resp.Best.Name, resp.CorpusVersion)
	}
	own := similarity.Cosine(q, o.vecs[i])
	if math.Abs(own-resp.Best.Score) > scoreTol || resp.Best.Score < top-scoreTol {
		return fmt.Errorf("best %q scored %.12f, oracle %.12f, oracle best %.12f", resp.Best.Name, resp.Best.Score, own, top)
	}
	if resp.Violation != (resp.Best.Score >= resp.Threshold) {
		return fmt.Errorf("violation %v at score %.6f threshold %.2f", resp.Violation, resp.Best.Score, resp.Threshold)
	}
	return nil
}
