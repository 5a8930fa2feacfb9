package main

import (
	"fmt"
	"os"
	"path/filepath"

	"freehw/internal/curation"
	"freehw/internal/similarity"
	"freehw/internal/snapstore"
	"freehw/internal/vcache"
)

// Merge policy of the replay's writer index: serve's defaults
// (Config.MergeMaxSegments, Config.MergeDeadFraction).
const (
	mergeMaxSegments  = 8
	mergeDeadFraction = 0.5
	// layerSumTol bounds the share of root-span time that no child layer
	// span covers (the replay's own glue plus tracing overhead).
	layerSumTol = 0.10
	cacheBudget = 256 << 20 // serve's default verdict-cache budget
)

// replay re-runs an audit workload's fixed-rate phase in process along
// the library path serve takes — Store.Entry → CachedBestMatch →
// Snapshot.Best → StoreBestMatch for audits; SegmentBuilder →
// Index.Remove/Append → Index.Snapshot → snapstore Save for publishes,
// with the merger's compactions done inline through MergeSegments — and
// records a span around each call.
type replay struct {
	tr    *tracer
	in    *auditInputs
	store *vcache.Store
	ix    *similarity.Index
	snap  *similarity.Snapshot
	ver   uint64
	st    *snapstore.Store
	dir   string

	req          int
	audits, hits int
	lives        []int // writer index live count after each delta publish
	sink         float64
}

func newReplay(tr *tracer, in *auditInputs, scratch string) (*replay, error) {
	dir, err := os.MkdirTemp(scratch, "replay-")
	if err != nil {
		return nil, err
	}
	st, err := snapstore.Open(dir, retainVers)
	if err != nil {
		return nil, err
	}
	rp := &replay{tr: tr, in: in, st: st, dir: dir, ix: similarity.NewIndex(),
		store: vcache.NewStore(curation.FreeSetOptions().Dedup)}
	rp.store.SetBudget(cacheBudget)
	rt := tr.begin("publish", rp.req, root)
	sp := tr.begin("similarity.segment_build", rp.req, rt)
	rp.req++
	seg := similarity.BuildSegment(in.names[:corpusDocs], in.bodies[:corpusDocs], 0)
	tr.end(sp)
	return rp, rp.commit(rt, nil, seg)
}

func (rp *replay) audit(text string) {
	tr, id := rp.tr, rp.req
	rp.req++
	rt := tr.begin("audit", id, root)
	sp := tr.begin("vcache.entry", id, rt)
	e := rp.store.Entry(text)
	tr.end(sp)
	sp = tr.begin("vcache.cached", id, rt)
	m, hit := e.CachedBestMatch(rp.ver)
	tr.end(sp)
	if !hit {
		sp = tr.begin("similarity.best", id, rt)
		m = rp.snap.Best(text)
		tr.end(sp)
		if sp >= 0 {
			tr.spans[sp].segs = int32(rp.snap.Segments())
		}
		sp = tr.begin("vcache.store", id, rt)
		e.StoreBestMatch(rp.ver, m)
		tr.end(sp)
	}
	tr.end(rt)
	rp.audits++
	if hit {
		rp.hits++
	} else if tr.detail {
		// Query tokenization, measured on its own: Best repeats it once
		// per segment, so its cost times the segment count is what a
		// single-pass query would save.
		sp = tr.begin("similarity.tokenize", id, root)
		rp.sink += float64(len(similarity.Tokenize(text)))
		tr.end(sp)
	}
	rp.sink += m.Score
}

// publish applies delta publish k.
func (rp *replay) publish(k int) error {
	tr, id := rp.tr, rp.req
	rp.req++
	rt := tr.begin("publish", id, root)
	sp := tr.begin("similarity.segment_build", id, rt)
	b := similarity.NewSegmentBuilder()
	remove := make([]string, deltaDocs)
	for i := 0; i < deltaDocs; i++ {
		j := corpusDocs + k*deltaDocs + i
		b.Add(rp.in.names[j], rp.in.bodies[j])
		remove[i] = rp.in.names[k*deltaDocs+i]
	}
	seg := b.Seal()
	tr.end(sp)
	if err := rp.commit(rt, remove, seg); err != nil {
		return err
	}
	rp.lives = append(rp.lives, rp.ix.Live())
	for {
		i, j, ok := pickMergeRun(rp.ix)
		if !ok {
			return nil
		}
		mt := tr.begin("similarity.merge", id, root)
		segs, deads := rp.ix.Run(i, j)
		rp.ix.ReplaceRun(i, j, similarity.MergeSegments(segs, deads))
		rp.snap = rp.ix.Snapshot()
		tr.end(mt)
	}
}

func (rp *replay) commit(rt int, remove []string, seg *similarity.Segment) error {
	tr, id := rp.tr, rp.req-1
	sp := tr.begin("similarity.index_update", id, rt)
	rp.ix.Remove(remove)
	rp.ix.Append(seg)
	tr.end(sp)
	sp = tr.begin("similarity.snapshot", id, rt)
	snap := rp.ix.Snapshot()
	tr.end(sp)
	sp = tr.begin("snapstore.save", id, rt)
	err := rp.st.Save(rp.ver+1, snap)
	tr.end(sp)
	tr.end(rt)
	if err != nil {
		return fmt.Errorf("replay save: %w", err)
	}
	rp.snap, rp.ver = snap, rp.ver+1
	return nil
}

func (rp *replay) close() { os.RemoveAll(rp.dir) }

// pickMergeRun is serve's merge policy: drop or compact a mostly dead
// segment, else merge the adjacent pair with the fewest live documents
// while more than mergeMaxSegments remain.
func pickMergeRun(ix *similarity.Index) (int, int, bool) {
	n := ix.Segments()
	for i := 0; i < n; i++ {
		docs, live := ix.SegInfo(i)
		if live == 0 || float64(docs-live) > mergeDeadFraction*float64(docs) {
			return i, i, true
		}
	}
	if n <= mergeMaxSegments {
		return 0, 0, false
	}
	best, at := -1, 0
	for i := 0; i+1 < n; i++ {
		_, a := ix.SegInfo(i)
		_, b := ix.SegInfo(i + 1)
		if best < 0 || a+b < best {
			best, at = a+b, i
		}
	}
	return at, at + 1, true
}

func runReplay(tr *tracer, b *auditBench, events []op, scratch string) (*replay, error) {
	rp, err := newReplay(tr, b.in, scratch)
	if err != nil {
		return nil, err
	}
	cands := b.in.candidates(b.nextCand)
	for _, e := range events {
		switch e.kind {
		case opAudit:
			rp.audit(cands[e.idx])
		case opPublish:
			if err := rp.publish(e.idx); err != nil {
				rp.close()
				return nil, err
			}
		}
	}
	return rp, nil
}

// replayAudit replays the fixed phase's schedule (events) untraced —
// roots only — and then traced, and derives the per-layer metrics.
// httpSentP50 is the HTTP run's median audit latency from send, in ms.
func replayAudit(r *run, b *auditBench, events []op, httpSentP50 float64) error {
	plain := newTracer(false)
	rp, err := runReplay(plain, b, events, r.scratch)
	if err != nil {
		return err
	}
	rp.close()

	tr := newTracer(true)
	similarity.ResetPruneStats()
	similarity.EnablePruneStats(true)
	rp, err = runReplay(tr, b, events, r.scratch)
	similarity.EnablePruneStats(false)
	if err != nil {
		return err
	}
	defer rp.close()
	ps := similarity.ReadPruneStats()

	for k, n := range rp.lives {
		if a := b.pubs[k]; a.resp.Indexed != n {
			r.problem("publish %d: HTTP indexed %d, mirror index live %d", k, a.resp.Indexed, n)
		}
	}
	lo, hi := live(len(rp.lives))
	text := 0
	for _, t := range b.in.bodies[lo:hi] {
		text += len(t)
	}
	r.set("snapstore.bytes_per_user_byte", ratio(float64(dirBytes(rp.dir)), float64(text)))

	lt := tr.layers()
	us := func(xs []float64) float64 { return median(xs) / 1e3 }
	msOf := func(xs []float64) float64 { return median(xs) / 1e6 }
	r.set("vcache.entry_us", us(lt.self["vcache.entry"]))
	r.set("vcache.hit_ratio", ratio(float64(rp.hits), float64(rp.audits)))
	r.set("similarity.best_us", us(lt.dur["similarity.best"]))
	var seg1, seg2, seg9 []float64
	for _, s := range tr.spans {
		if s.name != "similarity.best" {
			continue
		}
		d := float64(s.end - s.start)
		switch {
		case s.segs <= 1:
			seg1 = append(seg1, d)
		case s.segs <= 8:
			seg2 = append(seg2, d)
		default:
			seg9 = append(seg9, d)
		}
	}
	r.set("similarity.best_us.seg1", us(seg1))
	r.set("similarity.best_us.seg2_8", us(seg2))
	r.set("similarity.best_us.seg9p", us(seg9))
	r.set("similarity.tokenize_us", us(lt.dur["similarity.tokenize"]))
	r.set("similarity.postings_visited_ratio", ratio(float64(ps.PostingsVisited), float64(ps.PostingsTotal)))
	r.set("similarity.exhaustive_ratio", ratio(float64(ps.Exhaustive), float64(ps.Queries+ps.Exhaustive)))
	r.set("similarity.segment_build_ms", msOf(lt.dur["similarity.segment_build"]))
	r.set("similarity.merge_ms", msOf(lt.dur["similarity.merge"]))
	r.set("snapstore.save_ms", msOf(lt.dur["snapstore.save"]))

	untraced := median(plain.roots("audit"))
	r.set("trace.overhead_ratio", median(tr.roots("audit"))/untraced-1)
	r.set("serve.http_self_ms", httpSentP50-untraced/1e6)
	coverage := ratio(lt.covered, lt.rootTotal)
	r.set("trace.layer_coverage", coverage)
	if coverage < 1-layerSumTol {
		r.problem("layer-sum check: child layers cover %.3f of root time, want >= %.2f", coverage, 1-layerSumTol)
	}
	path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.jsonl", b.wl.name, r.seed))
	r.note("traced replay: %d audits, %d publishes, %d spans written to %s; layer coverage %.4f", rp.audits, len(rp.lives), len(tr.spans), path, coverage)
	return tr.write(path)
}
