package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"freehw/internal/corpus"
	"freehw/internal/curation"
	"freehw/internal/gitsim"
	"freehw/internal/pipeline"
	"freehw/internal/vcache"
	"freehw/internal/vlog"
)

const (
	curateName   = "curate"
	curateScale  = 2 // world scale: ~1040 repos, ~30k files, ~28 MB
	scrapeSetUps = 3 // scrapes per run; setup_s is their median
	minPasses    = 5
	tracedPasses = 3
)

// scrape pulls every Verilog repository of world through the simulated
// GitHub API over a loopback listener.
func scrape(world *corpus.World) ([]gitsim.RepoData, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: gitsim.NewServer(world, 0, 50*time.Millisecond)}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-served
	}()
	client := gitsim.NewClient("http://" + ln.Addr().String())
	return client.ScrapeVerilog(context.Background(),
		time.Date(2008, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC))
}

// coldPass is one FreeSet funnel run over repos with a fresh verdict
// store, as a new process would run it.
func coldPass(repos []gitsim.RepoData, workers int) (*curation.Result, error) {
	opt := curation.FreeSetOptions()
	opt.Workers = workers
	opt.Cache = vcache.NewStore(opt.Dedup)
	ex := curation.ExtractWithCache(repos, opt.Dedup, workers, opt.Cache)
	return curation.RunExtracted(ex, opt)
}

func keyDigest(keys []string) [32]byte {
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
	}
	var d [32]byte
	h.Sum(d[:0])
	return d
}

// runCurate scrapes the world scrapeSetUps times, computes a workers=1
// reference outside timing, then times cold passes for the run's
// seconds, checking each pass's kept set against the reference.
func runCurate(r *run) error {
	wcfg := corpus.DefaultConfig(curateScale)
	wcfg.Seed = r.seed
	world := corpus.BuildWorld(wcfg)
	heap0 := heapAlloc()

	var repos []gitsim.RepoData
	var setups []float64
	var first [32]byte
	for i := 0; i < scrapeSetUps; i++ {
		t0 := time.Now()
		got, err := scrape(world)
		if err != nil {
			return fmt.Errorf("scrape: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if d := scrapeDigest(got); i == 0 {
			first = d
		} else if d != first {
			r.problem("scrape %d returned different repositories than scrape 0", i)
		}
		repos = got
	}
	r.set("setup_s", median(setups))
	files := 0
	for _, rd := range repos {
		files += len(rd.Files)
	}

	ref, err := coldPass(repos, 1)
	if err != nil {
		return err
	}
	want := keyDigest(ref.Keys())

	var lat []float64
	var res *curation.Result
	cpu := 0.0
	deadline := time.Now().Add(time.Duration(r.seconds) * time.Second)
	for len(lat) < minPasses || time.Now().Before(deadline) {
		c0, t0 := cpuSeconds(), time.Now()
		res, err = coldPass(repos, 0)
		d, c := time.Since(t0), cpuSeconds()-c0
		r.attempted++
		if err != nil {
			r.failed++
			r.problem("pass %d: %v", len(lat), err)
			continue
		}
		lat = append(lat, ms(d))
		cpu += c
		if keyDigest(res.Keys()) != want || res.TotalFiles != ref.TotalFiles {
			r.problem("pass %d: kept %d of %d files, reference kept %d of %d", len(lat), res.FinalFiles, res.TotalFiles, ref.FinalFiles, ref.TotalFiles)
		}
	}
	heap := heapAlloc() - heap0
	runtime.KeepAlive(res)
	total := 0.0
	for _, l := range lat {
		total += l
	}
	r.set("heap_live_mb", heap)
	r.set("curate.files_per_s", float64(ref.TotalFiles*len(lat))/(total/1e3))
	r.set("capacity_per_s", float64(runtime.NumCPU())*float64(ref.TotalFiles*len(lat))/cpu)
	r.set("curate.passes", float64(len(lat)))
	r.set("curate.pass_p50_ms", median(lat))
	r.set("curate.p99_ms", quantile(lat, 0.99))
	r.note("curate: %d repos, %d files scraped, %d Verilog files in the funnel, %d kept (reference digest %x)",
		len(repos), files, ref.TotalFiles, ref.FinalFiles, want[:6])
	if r.trace {
		return traceCurate(r, repos, want, median(lat))
	}
	return nil
}

func scrapeDigest(repos []gitsim.RepoData) [32]byte {
	var keys []string
	for _, rd := range repos {
		for _, f := range rd.Files {
			keys = append(keys, rd.Meta.FullName+"/"+f.Path, f.Content)
		}
	}
	return keyDigest(keys)
}

// tracedPass is a cold pass with a span around the extraction and around
// each funnel stage, run as a single-stage pipeline.Execute over the
// previous stage's survivors (the funnel semantics RunExtracted has).
// It returns the kept keys and the syntax stage's input.
func tracedPass(tr *tracer, id int, repos []gitsim.RepoData) (kept []string, syntaxIn []*pipeline.Candidate, dedupIn, dedupKept int) {
	opt := curation.FreeSetOptions()
	rt := tr.begin("curate.pass", id, root)
	sp := tr.begin("curation.extract", id, rt)
	ex := curation.ExtractWithCache(repos, opt.Dedup, 0, vcache.NewStore(opt.Dedup))
	tr.end(sp)
	// The pass is cold, so every memo entry is still empty: Execute's
	// standalone entries do exactly the work the store's would.
	var alive []*pipeline.Candidate
	for _, f := range ex.Files() {
		rec := f.Record()
		alive = append(alive, &pipeline.Candidate{Key: rec.Key(), Content: rec.Content, Licensed: f.Licensed()})
	}
	for _, st := range opt.Mask.Stages(opt.Dedup, 0) {
		if st.Name() == pipeline.StageSyntax {
			syntaxIn = alive
		}
		sp = tr.begin("pipeline."+st.Name(), id, rt)
		rep := pipeline.Execute(0, []pipeline.Stage{st}, alive)
		tr.end(sp)
		next := alive[:0:0]
		for i, v := range rep.Verdicts {
			if v.Accept {
				next = append(next, alive[i])
			}
		}
		if st.Name() == pipeline.StageDedup {
			dedupIn, dedupKept = len(alive), len(next)
		}
		alive = next
	}
	tr.end(rt)
	for _, c := range alive {
		kept = append(kept, c.Key)
	}
	return kept, syntaxIn, dedupIn, dedupKept
}

// traceCurate runs traced cold passes and derives the curation layers'
// metrics; untracedP50 is the timed passes' median (ms).
func traceCurate(r *run, repos []gitsim.RepoData, want [32]byte, untracedP50 float64) error {
	tr := newTracer(true)
	var syntaxIn []*pipeline.Candidate
	var dedupIn, dedupKept int
	for i := 0; i < tracedPasses; i++ {
		var kept []string
		kept, syntaxIn, dedupIn, dedupKept = tracedPass(tr, i, repos)
		if keyDigest(kept) != want {
			r.problem("traced pass %d: kept set differs from the reference", i)
		}
	}
	quick := 0
	for _, c := range syntaxIn {
		if vlog.QuickCheck(c.Content) {
			quick++
		}
	}
	lt := tr.layers()
	msOf := func(name string) float64 { return median(lt.dur[name]) / 1e6 }
	r.set("curation.extract_ms", msOf("curation.extract"))
	for _, st := range []string{pipeline.StageLicense, pipeline.StageDedup, pipeline.StageCopyright, pipeline.StageSyntax} {
		r.set("pipeline."+st+"_ms", msOf("pipeline."+st))
	}
	r.set("vlog.quickcheck_pass_ratio", ratio(float64(quick), float64(len(syntaxIn))))
	r.set("dedup.removed_ratio", ratio(float64(dedupIn-dedupKept), float64(dedupIn)))
	r.set("trace.overhead_ratio", msOf("curate.pass")/untracedP50-1)
	coverage := ratio(lt.covered, lt.rootTotal)
	r.set("trace.layer_coverage", coverage)
	if coverage < 1-layerSumTol {
		r.problem("layer-sum check: child layers cover %.3f of root time, want >= %.2f", coverage, 1-layerSumTol)
	}
	path := filepath.Join(".bench_build", fmt.Sprintf("spans-curate-seed%d.jsonl", r.seed))
	r.note("traced curate: %d passes, %d spans written to %s; layer coverage %.4f", tracedPasses, len(tr.spans), path, coverage)
	return tr.write(path)
}
