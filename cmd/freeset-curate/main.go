// Command freeset-curate runs the FreeSet curation funnel end to end
// against the simulated GitHub: scrape (with date-window granularization
// and rate-limit handling), license gate, MinHash/LSH dedup, per-file
// copyright screen, and syntax check. It prints the §IV-A funnel and can
// write the resulting dataset to a directory.
//
// Usage:
//
//	freeset-curate [-scale 0.5] [-seed 1] [-out dir] [-rate 0]
//	               [-no-cache] [-cache-budget 0] [-repeat 1]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"freehw/internal/core"
	"freehw/internal/curation"
	"freehw/internal/vcache"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("freeset-curate: ")
	var (
		scale   = flag.Float64("scale", 0.5, "world scale (1.0 = 1:100 of the paper's snapshot)")
		seed    = flag.Int64("seed", 1, "world seed")
		out     = flag.String("out", "", "directory to write the curated dataset into")
		rate    = flag.Int("rate", 0, "simulated API rate limit (requests per 50ms; 0 = off)")
		noCache = flag.Bool("no-cache", false, "disable the content-hash verdict cache")
		budget  = flag.Int64("cache-budget", 0, "verdict cache byte budget (segmented-LRU eviction; 0 = unbounded)")
		repeat  = flag.Int("repeat", 1, "re-run the FreeSet funnel n times (warm-cache timing)")
	)
	flag.Parse()

	cfg := core.DefaultConfig()
	cfg.Scale = *scale
	cfg.Seed = *seed
	cfg.GitRateLimit = *rate
	cfg.NoCache = *noCache
	cfg.CacheBudget = *budget
	e, err := core.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("scraped %d repos with %d API requests (%d window splits, %d rate waits)",
		e.ScrapeStats.Repos, e.ScrapeStats.Requests, e.ScrapeStats.WindowSplits, e.ScrapeStats.RateWaits)

	for r := 1; r < *repeat; r++ {
		opt := curation.FreeSetOptions()
		opt.NoCache = *noCache
		opt.CacheBudget = *budget
		start := time.Now()
		res := curation.Run(e.Repos, opt)
		log.Printf("funnel re-run %d: %d files in %v", r, res.FinalFiles, time.Since(start))
	}
	if !*noCache {
		st := vcache.Shared(curation.FreeSetOptions().Dedup).Stats()
		log.Printf("verdict cache: %d entries (~%d KB), %d hits, %d misses, %d evictions",
			st.Entries, st.Bytes>>10, st.Hits, st.Misses, st.Evictions)
	}

	fmt.Println("===== Funnel =====")
	fmt.Print(e.FreeSet.FunnelReport(*scale))
	fmt.Println("\n===== Table I =====")
	rows := append(curation.PriorWorkRows(), curation.PaperFreeSetRow(), e.FreeSet.FreeSetRow("FreeSet (measured)"))
	fmt.Print(curation.RenderTableI(rows))

	if len(e.FreeSet.CopyrightFindings) > 0 {
		fmt.Println("\n===== Copyright findings (sample) =====")
		for i, cf := range e.FreeSet.CopyrightFindings {
			if i >= 10 {
				fmt.Printf("  ... and %d more\n", len(e.FreeSet.CopyrightFindings)-10)
				break
			}
			fmt.Printf("  %s: %s %v\n", cf.Key, cf.Company, cf.Reasons)
			for _, h := range cf.SensitiveHits {
				fmt.Printf("    sensitive content: %s\n", h)
			}
		}
	}

	if *out != "" {
		if err := writeDataset(*out, e.FreeSet); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %d files (%d bytes) to %s", e.FreeSet.FinalFiles, e.FreeSet.Bytes, *out)
	}
}

func writeDataset(dir string, res *curation.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, f := range res.Files {
		name := fmt.Sprintf("%05d_%s.v", i, sanitize(f.Repo))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(f.Content), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '_'
		}
	}, s)
}
