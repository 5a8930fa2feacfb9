package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strconv"

	"freehw/internal/corpus"
)

// Sizes shared by both audit workloads (spec.json records the same
// numbers for readers who cite them).
const (
	corpusDocs    = 2000 // live protected bodies at every corpus version
	nearDupShare  = 0.10 // candidates that are MutateIdentifiers copies of a protected body
	recentWindow  = 512  // audit-churn resamples from the last this-many candidates sent
	resampleShare = 0.5  // share of audit-churn candidates that are resampled
	deltaDocs     = 4    // documents added, and removed, by each delta publish
)

// auditInputs is everything the audit workloads send, derived from the
// seed alone: the protected pool (the first corpusDocs bodies are the
// initial corpus, the rest are added by delta publishes in order) and a
// candidate generator whose n-th candidate depends only on (seed, n).
type auditInputs struct {
	names, bodies []string // protected pool
	churn         bool

	rng   *rand.Rand
	seen  map[string]struct{}
	cands []string
}

func newAuditInputs(seed int64, churn bool, publishes int) *auditInputs {
	pool := corpus.BuildProtectedCorpus(seed, corpusDocs+deltaDocs*publishes)
	in := &auditInputs{
		churn: churn,
		rng:   rand.New(rand.NewSource(seed ^ 0x5eed_a0d17)),
		seen:  make(map[string]struct{}),
	}
	for _, p := range pool {
		in.names = append(in.names, p.Name)
		in.bodies = append(in.bodies, p.Body)
	}
	return in
}

// publishes reports how many delta publishes the protected pool can feed.
func (in *auditInputs) publishes() int { return (len(in.bodies) - corpusDocs) / deltaDocs }

// candidates returns the first n candidates of the stream, generating
// any not yet made. Fresh candidates are always distinct from every
// earlier one; on audit-churn half of the stream is instead resampled
// from the last recentWindow candidates.
func (in *auditInputs) candidates(n int) []string {
	for len(in.cands) < n {
		k := len(in.cands)
		if in.churn && k > 0 && in.rng.Float64() < resampleShare {
			lo := max(0, k-recentWindow)
			in.cands = append(in.cands, in.cands[lo+in.rng.Intn(k-lo)])
			continue
		}
		in.cands = append(in.cands, in.fresh())
	}
	return in.cands[:n]
}

// fresh draws one candidate never seen before: a near-duplicate of an
// initial-corpus body with probability nearDupShare, otherwise a
// generated module. Drawing from the initial corpus, not the whole pool,
// keeps the stream independent of how many publishes the run sizes the
// pool for.
func (in *auditInputs) fresh() string {
	for {
		var text string
		if in.rng.Float64() < nearDupShare {
			text = corpus.MutateIdentifiers(in.rng, in.bodies[in.rng.Intn(corpusDocs)])
		} else {
			text = corpus.Generate(in.rng, "", false).Source
		}
		if _, dup := in.seen[text]; !dup {
			in.seen[text] = struct{}{}
			return text
		}
	}
}

// auditRequest is the HTTP/1.1 request bytes of one POST /v1/audit.
func auditRequest(code string) []byte {
	body, err := json.Marshal(struct {
		Code string `json:"code"`
	}{code})
	if err != nil {
		panic(err) // a string always marshals
	}
	return httpRequest("POST", "/v1/audit", "application/json", body)
}

// deltaRequest is the k-th delta publish (k from 0): an NDJSON upload
// adding the next deltaDocs pool bodies and removing the deltaDocs oldest
// live ones, so the live count stays corpusDocs.
func (in *auditInputs) deltaRequest(k int) []byte {
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for i := 0; i < deltaDocs; i++ {
		j := corpusDocs + k*deltaDocs + i
		mustEncode(enc, map[string]string{"name": in.names[j], "text": in.bodies[j]})
	}
	for i := 0; i < deltaDocs; i++ {
		mustEncode(enc, map[string]string{"remove": in.names[k*deltaDocs+i]})
	}
	return httpRequest("POST", "/v1/corpus?mode=delta", "application/x-ndjson", body.Bytes())
}

// initialRequest is the replace publish of the initial corpus.
func (in *auditInputs) initialRequest() []byte {
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for i := 0; i < corpusDocs; i++ {
		mustEncode(enc, map[string]string{"name": in.names[i], "text": in.bodies[i]})
	}
	return httpRequest("POST", "/v1/corpus", "application/x-ndjson", body.Bytes())
}

// live returns the pool range [lo, hi) that is live after the first
// `applied` delta publishes.
func live(applied int) (lo, hi int) {
	return applied * deltaDocs, corpusDocs + applied*deltaDocs
}

func mustEncode(enc *json.Encoder, v any) {
	if err := enc.Encode(v); err != nil {
		panic(err) // string maps always encode
	}
}

func httpRequest(method, target, contentType string, body []byte) []byte {
	var b bytes.Buffer
	b.WriteString(method + " " + target + " HTTP/1.1\r\nHost: bench\r\n")
	if body != nil {
		b.WriteString("Content-Type: " + contentType + "\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\n")
	}
	b.WriteString("\r\n")
	b.Write(body)
	return b.Bytes()
}
