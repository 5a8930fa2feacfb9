package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"freehw/internal/par"
	"freehw/internal/serve"
	"freehw/internal/snapstore"
)

// Audit-workload parameters. The latency limit and ladder step are the
// ones audit.max_rate_qps is defined by; spec.json records them too.
const (
	clientConns  = 2                     // client connections (= nproc of the reference host)
	setUps       = 7                     // set-ups per run; setup_s is their median
	latencyLimit = 10 * time.Millisecond // p99 limit of a passing ladder rung
	ladderStep   = 1.05                  // rung ratio
	ladderJump   = 2                     // rungs per step of the walk from the first guess
	ladderProbes = 8                     // most probes per run (a rung takes one or two)
	ladderGuess  = 0.9                   // first rung: this share of the rate the fixed phase's CPU cost allows
	ladderSettle = 200 * time.Millisecond
	statsEvery   = 100 * time.Millisecond // /v1/stats sampling period (traced runs)
	oracleChecks = 150                    // fixed-phase audits per run checked against the oracle (ladder audits are sampled at the same stride)
	retainVers   = 3                      // snapstore versions kept, as freeset-serve's default
)

type auditWorkload struct {
	name        string
	auditRate   float64 // audits/s in the fixed-rate phase; the ladder's base rung
	publishRate float64 // delta publishes/s, in every phase (0: none)
	churn       bool    // resample half the candidates
	// ladder runs, after the fixed phase, the search for
	// audit.max_rate_qps: the highest rate meeting the latency limit. It
	// is reported, not gated: near the knee its verdicts turn on single
	// host stalls, and over five seeds it spread by a third run to run.
	ladder bool
}

var (
	auditFresh = auditWorkload{name: "audit-fresh", auditRate: 2000, ladder: true}
	auditChurn = auditWorkload{name: "audit-churn", auditRate: 1000, publishRate: 10, churn: true}
)

// auditBench drives one serve.Server over a loopback listener.
type auditBench struct {
	wl    auditWorkload
	in    *auditInputs
	scr   string // directory for data dirs
	stats bool   // sample /v1/stats during phases

	initial []byte // initial publish request

	srv     *serve.Server
	hs      *http.Server
	served  chan error
	addr    string
	dataDir string

	nextCand, nextPub int
	checkEvery        int
	checks            []auditCheck
	pubs              []pubAck
	statSamples       []serve.StatsResponse
}

type auditCheck struct {
	cand int
	body []byte
}

type pubAck struct {
	k      int
	status int
	resp   serve.CorpusResponse
	lat    float64 // ms, from due
}

// phaseResult summarizes one open-loop phase.
type phaseResult struct {
	rate                float64
	ops                 []op      // the schedule run, request bytes dropped
	auditLat, auditSent []float64 // ms from due, ms from sent; failures are +Inf
	tailLat             []float64 // from-due latency of the last tenth of audits
	lag                 []float64 // ms sent-due, every op
	attempted, failed   int
	pubBad              int
}

func (b *auditBench) setUp() (time.Duration, error) {
	t0 := time.Now()
	dir, err := os.MkdirTemp(b.scr, "data-")
	if err != nil {
		return 0, err
	}
	st, err := snapstore.Open(dir, retainVers)
	if err != nil {
		return 0, err
	}
	cfg := serve.DefaultConfig()
	cfg.Store = st
	srv := serve.NewServer(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return 0, err
	}
	b.srv, b.dataDir, b.addr = srv, dir, ln.Addr().String()
	b.hs = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	b.served = make(chan error, 1)
	go func() { b.served <- b.hs.Serve(ln) }()

	c, err := dial(b.addr)
	if err != nil {
		return 0, err
	}
	defer c.close()
	status, body, err := c.roundTrip(b.initial, true)
	if err != nil {
		return 0, fmt.Errorf("initial publish: %w", err)
	}
	var resp serve.CorpusResponse
	if status != http.StatusOK || json.Unmarshal(body, &resp) != nil || resp.Version != 1 || resp.Indexed != corpusDocs || !resp.Persisted {
		return 0, fmt.Errorf("initial publish: status %d body %.200s", status, body)
	}
	ready := httpRequest("GET", "/v1/readyz", "", nil)
	for {
		status, _, err := c.roundTrip(ready, false)
		if err != nil {
			return 0, fmt.Errorf("readyz: %w", err)
		}
		if status == http.StatusOK {
			break
		}
		if time.Since(t0) > ioTimeout {
			return 0, fmt.Errorf("readyz: still %d after %v", status, ioTimeout)
		}
	}
	return time.Since(t0), nil
}

func (b *auditBench) tearDown() {
	if b.srv == nil {
		return
	}
	b.hs.Close()
	<-b.served
	b.srv.Close()
	os.RemoveAll(b.dataDir)
	b.srv = nil
}

// schedule builds one phase's ops: audits at rate, delta publishes at
// the workload's publish rate, and (traced runs) /v1/stats samples.
func (b *auditBench) schedule(rate float64, dur time.Duration) []op {
	var ops []op
	n := int(rate * dur.Seconds())
	cands := b.in.candidates(b.nextCand + n)
	for i := 0; i < n; i++ {
		k := b.nextCand + i
		ops = append(ops, op{
			due:  time.Duration(float64(i) / rate * float64(time.Second)),
			kind: opAudit, idx: k, req: auditRequest(cands[k]),
			keep: k%b.checkEvery == 0,
		})
	}
	b.nextCand += n
	if b.wl.publishRate > 0 {
		for i := 0; ; i++ {
			due := time.Duration((float64(i) + 0.5) / b.wl.publishRate * float64(time.Second))
			if due >= dur {
				break
			}
			if b.nextPub >= b.in.publishes() {
				panic("perfbench: protected pool exhausted; raise the publish budget")
			}
			ops = append(ops, op{due: due, kind: opPublish, idx: b.nextPub, req: b.in.deltaRequest(b.nextPub)})
			b.nextPub++
		}
	}
	if b.stats {
		req := httpRequest("GET", "/v1/stats", "", nil)
		for due := time.Duration(0); due < dur; due += statsEvery {
			ops = append(ops, op{due: due, kind: opStats, req: req})
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	return ops
}

// phase runs one open-loop phase and records what the checks need.
func (b *auditBench) phase(rate float64, dur time.Duration) (phaseResult, error) {
	ops := b.schedule(rate, dur)
	samples, err := runOpenLoop(b.addr, clientConns, ops)
	if err != nil {
		return phaseResult{}, err
	}
	pr := phaseResult{rate: rate, ops: ops}
	for i := range ops {
		o, s := &ops[i], &samples[i]
		o.req = nil
		pr.lag = append(pr.lag, ms(s.sent-o.due))
		switch o.kind {
		case opAudit:
			pr.attempted++
			lat, sent := ms(s.done-o.due), ms(s.done-s.sent)
			if s.status != http.StatusOK {
				pr.failed++
				lat, sent = math.Inf(1), math.Inf(1)
			} else if o.keep {
				b.checks = append(b.checks, auditCheck{cand: o.idx, body: s.body})
			}
			pr.auditLat = append(pr.auditLat, lat)
			pr.auditSent = append(pr.auditSent, sent)
		case opPublish:
			ack := pubAck{k: o.idx, status: s.status, lat: ms(s.done - o.due)}
			if s.status != http.StatusOK || json.Unmarshal(s.body, &ack.resp) != nil {
				pr.pubBad++
				pr.failed++
				ack.lat = math.Inf(1)
			}
			pr.attempted++
			b.pubs = append(b.pubs, ack)
		case opStats:
			var st serve.StatsResponse
			if s.status == http.StatusOK && json.Unmarshal(s.body, &st) == nil {
				b.statSamples = append(b.statSamples, st)
			}
		}
	}
	// Ops run in due order, so the last tenth of auditLat is the rung's end.
	pr.tailLat = pr.auditLat[len(pr.auditLat)*9/10:]
	return pr, nil
}

// passes reports whether a ladder rung met the latency limit: every
// audit answered 200, p99 from due within the limit — taken as the
// median over windows of probeWindow, each holding at least a thousand
// audits — and no growing backlog: the last tenth of
// the rung's audits still within the limit at the median.
func (pr *phaseResult) passes() bool {
	limit := ms(latencyLimit)
	return pr.failed == 0 &&
		windowedP99(*pr, probeWindow) <= limit &&
		median(pr.tailLat) <= limit
}

// ladder finds the highest rung base·ladderStep^k meeting the latency
// limit. It starts at the rung nearest guess, walks ladderJump rungs at
// a time up while rungs pass (down while they fail), then probes the
// rungs between the last pass and the first failure. It returns that
// rate and the probes made.
func (b *auditBench) ladder(base, guess float64, probe time.Duration) (float64, []phaseResult, error) {
	rung := func(k int) float64 { return base * math.Pow(ladderStep, float64(k)) }
	var probes []phaseResult
	// A rung that fails with no backlog left at its end — a transient
	// stall, not overload — is probed once more and passes if the second
	// probe does, so one host hiccup does not end the search.
	try := func(k int) (bool, error) {
		for attempt := 0; attempt < 2 && len(probes) < ladderProbes; attempt++ {
			time.Sleep(ladderSettle)
			pr, err := b.phase(rung(k), probe)
			if err != nil {
				return false, err
			}
			probes = append(probes, pr)
			if pr.passes() {
				return true, nil
			}
			if median(pr.tailLat) > ms(latencyLimit) {
				return false, nil
			}
		}
		return false, nil
	}
	k := int(math.Round(math.Log(guess/base) / math.Log(ladderStep)))
	ok, err := try(k)
	if err != nil {
		return 0, nil, err
	}
	lo, hi := k, k
	if ok {
		for ok && len(probes) < ladderProbes {
			lo = hi
			hi += ladderJump
			if ok, err = try(hi); err != nil {
				return 0, nil, err
			}
		}
		if ok {
			lo = hi
		}
	} else {
		for !ok && len(probes) < ladderProbes {
			hi = lo
			lo -= ladderJump
			if ok, err = try(lo); err != nil {
				return 0, nil, err
			}
		}
		if !ok {
			lo-- // out of probes: below every rung tried
		}
	}
	for k := hi - 1; k > lo && len(probes) < ladderProbes; k-- {
		if ok, err = try(k); err != nil {
			return 0, nil, err
		}
		if ok {
			lo = k
			break
		}
	}
	return rung(lo), probes, nil
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// probeWindow is the span of due times over which a ladder probe takes
// one p99; the probe is judged by the median over its windows, so that
// one host stall moves one window, not the rung's verdict.
const probeWindow = 500 * time.Millisecond

func windowedP99(pr phaseResult, window time.Duration) float64 {
	per := int(pr.rate * window.Seconds())
	var p99s []float64
	for lo := 0; lo+per <= len(pr.auditLat); lo += per {
		p99s = append(p99s, quantile(pr.auditLat[lo:lo+per], 0.99))
	}
	return median(p99s)
}

func heapAlloc() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runAudit runs one audit workload: set-ups, the fixed-rate phase, the
// rate ladder, every output check, and (traced runs) the replay.
func runAudit(r *run, wl auditWorkload) error {
	total := time.Duration(r.seconds) * time.Second
	fixedDur := total
	if wl.ladder {
		fixedDur = total * 3 / 5
	}
	probeDur := (total - fixedDur) / ladderProbes
	publishes := 0
	if wl.publishRate > 0 {
		// Enough pool for the fixed phase, every probe and the settles.
		publishes = int(wl.publishRate*(total+ladderProbes*ladderSettle).Seconds()) + ladderProbes + 1
	}
	in := newAuditInputs(r.seed, wl.churn, publishes)
	nFixed := int(wl.auditRate * fixedDur.Seconds())
	in.candidates(nFixed)
	b := &auditBench{wl: wl, in: in, scr: r.scratch, stats: r.trace, initial: in.initialRequest(),
		checkEvery: max(1, nFixed/oracleChecks)}
	orc := newOracle(in)
	defer b.tearDown()

	heap0 := heapAlloc()
	var setups []float64
	for i := 0; i < setUps; i++ {
		b.tearDown()
		d, err := b.setUp()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	r.set("setup_s", median(setups))

	cpu0 := cpuSeconds()
	fixed, err := b.phase(wl.auditRate, fixedDur)
	if err != nil {
		return err
	}
	// The whole process — server, writer and generator — shares
	// runtime.NumCPU cores, so the fixed phase's CPU per audit bounds the
	// audit rate they can sustain: the capacity gated on.
	capacity := float64(runtime.NumCPU()) * float64(len(fixed.auditLat)) / (cpuSeconds() - cpu0)
	fixedPubs := len(b.pubs)
	r.set("heap_live_mb", heapAlloc()-heap0)
	var probes []phaseResult
	if wl.ladder {
		// The ladder starts just below the CPU bound.
		maxRate, ps, err := b.ladder(wl.auditRate, ladderGuess*capacity, probeDur)
		if err != nil {
			return err
		}
		probes = ps
		r.set("audit.max_rate_qps", maxRate)
	}
	spaceAmp := b.spaceAmp()
	b.tearDown()

	r.attempted, r.failed = fixed.attempted, fixed.failed
	for _, p := range probes {
		r.attempted += p.attempted
		r.failed += p.failed
	}
	r.set("capacity_per_s", capacity)
	r.note("%s: %d audits at %.0f/s for %v, %d ladder rungs probed for %v each", wl.name, len(fixed.auditLat), wl.auditRate, fixedDur, len(probes), probeDur)
	for _, p := range probes {
		r.note("  rung %7.1f/s: p99 %8.3f ms, windowed p99 %8.3f ms, tail p50 %8.3f ms, failed %d, pass %v", p.rate,
			quantile(p.auditLat, 0.99), windowedP99(p, probeWindow), median(p.tailLat), p.failed, p.passes())
	}
	r.set("audit.p50_ms", median(fixed.auditLat))
	r.set("audit.p99_ms", quantile(fixed.auditLat, 0.99))
	r.set("audit.sent_p50_ms", median(fixed.auditSent))
	r.set("audit.sent_p99_ms", quantile(fixed.auditSent, 0.99))
	r.set("audit.samples", float64(len(fixed.auditLat)))
	r.set("audit.error_ratio", ratio(float64(fixed.failed-fixed.pubBad), float64(len(fixed.auditLat))))
	r.set("loadgen.lag_p50_ms", median(fixed.lag))
	r.set("loadgen.lag_p99_ms", quantile(fixed.lag, 0.99))
	r.set("store.space_amp", spaceAmp)
	if wl.publishRate > 0 {
		var lat []float64
		for _, a := range b.pubs[:fixedPubs] {
			lat = append(lat, a.lat)
		}
		r.set("publish.p50_ms", median(lat))
		r.set("publish.p99_ms", quantile(lat, 0.99))
		r.set("publish.samples", float64(len(lat)))
		r.set("publish.error_ratio", ratio(float64(fixed.pubBad), float64(len(lat))))
	}
	if r.trace {
		b.serveLayers(r, fixed, probes)
	}

	b.checkOutputs(r, orc)
	if r.trace {
		return replayAudit(r, b, fixed.ops, median(fixed.auditSent))
	}
	return nil
}

// spaceAmp is the data directory's size over the live corpus text.
func (b *auditBench) spaceAmp() float64 {
	lo, hi := live(b.applied())
	text := 0
	for _, t := range b.in.bodies[lo:hi] {
		text += len(t)
	}
	return ratio(float64(dirBytes(b.dataDir)), float64(text))
}

// applied counts the delta publishes acknowledged so far.
func (b *auditBench) applied() int {
	n := 0
	for _, a := range b.pubs {
		if a.status == http.StatusOK {
			n++
		}
	}
	return n
}

// serveLayers derives the serving-layer metrics of a traced run from the
// /v1/stats samples and the client's own counts.
func (b *auditBench) serveLayers(r *run, fixed phaseResult, probes []phaseResult) {
	var segs []float64
	qmax := 0
	for _, s := range b.statSamples {
		segs = append(segs, float64(s.Segments))
		qmax = max(qmax, s.QueueDepth)
	}
	if n := len(b.statSamples); n > 0 {
		last := b.statSamples[n-1]
		r.set("serve.batch_mean", ratio(float64(last.BatchedAudits), float64(last.Batches)))
	}
	r.set("serve.queue_depth_max", float64(qmax))
	r.set("similarity.segments_mean", mean(segs))
	slices := append([]float64(nil), segs...)
	sort.Float64s(slices)
	if len(slices) > 0 {
		r.set("similarity.segments_max", slices[len(slices)-1])
	}
	attempted, shed := float64(len(fixed.auditLat)), float64(fixed.failed-fixed.pubBad)
	for _, p := range probes {
		attempted += float64(len(p.auditLat))
		shed += float64(p.failed - p.pubBad)
	}
	r.set("serve.shed_ratio", ratio(shed, attempted))
}

// checkOutputs verifies publish acknowledgements (versions strictly
// increasing, live count as the mirror says) and the sampled audit
// verdicts against the oracle at each response's corpus version.
func (b *auditBench) checkOutputs(r *run, orc *oracle) {
	appliedAt := map[uint64]int{1: 0} // corpus version -> delta publishes applied
	prev := int64(1)
	for i, a := range b.pubs {
		if a.status != http.StatusOK {
			r.problem("publish %d: status %d", a.k, a.status)
			continue
		}
		if a.resp.Version <= prev {
			r.problem("publish %d: version %d after %d", a.k, a.resp.Version, prev)
		}
		prev = a.resp.Version
		lo, hi := live(i + 1)
		if a.resp.Indexed != hi-lo || a.resp.Added != deltaDocs || a.resp.Removed != deltaDocs || !a.resp.Persisted {
			r.problem("publish %d: indexed %d added %d removed %d persisted %v, mirror live %d",
				a.k, a.resp.Indexed, a.resp.Added, a.resp.Removed, a.resp.Persisted, hi-lo)
		}
		appliedAt[uint64(a.resp.Version)] = i + 1
	}
	errs := make([]error, len(b.checks))
	cands := b.in.candidates(b.nextCand)
	par.ForEach(0, len(b.checks), func(i int) {
		c := b.checks[i]
		var v struct {
			CorpusVersion uint64 `json:"corpus_version"`
		}
		if err := json.Unmarshal(c.body, &v); err != nil {
			errs[i] = err
			return
		}
		n, ok := appliedAt[v.CorpusVersion]
		if !ok {
			errs[i] = fmt.Errorf("unknown corpus_version %d", v.CorpusVersion)
			return
		}
		lo, hi := live(n)
		errs[i] = orc.check(cands[c.cand], lo, hi, c.body)
	})
	bad := 0
	for i, err := range errs {
		if err != nil {
			bad++
			r.problem("audit of candidate %d: %v", b.checks[i].cand, err)
		}
	}
	r.note("checks: %d audit verdicts against the cosine oracle (%d mismatches), %d publish acks", len(b.checks), bad, len(b.pubs))
	r.set("check.oracle_audits", float64(len(b.checks)))
	r.set("check.oracle_mismatches", float64(bad))
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
