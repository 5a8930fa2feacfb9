package main

import (
	"bytes"
	"crypto/sha256"
	"testing"
)

// streams hashes everything a workload sends for a seed: the initial
// publish, n audit requests and the delta publishes.
func streams(seed int64, churn bool, n, publishes int) (audits, pubs [32]byte) {
	in := newAuditInputs(seed, churn, publishes)
	ha, hp := sha256.New(), sha256.New()
	for _, c := range in.candidates(n) {
		ha.Write(auditRequest(c))
	}
	hp.Write(in.initialRequest())
	for k := 0; k < in.publishes(); k++ {
		hp.Write(in.deltaRequest(k))
	}
	copy(audits[:], ha.Sum(nil))
	copy(pubs[:], hp.Sum(nil))
	return audits, pubs
}

func TestSameSeedSameStreams(t *testing.T) {
	for _, churn := range []bool{false, true} {
		a1, p1 := streams(7, churn, 3000, 20)
		a2, p2 := streams(7, churn, 3000, 20)
		if a1 != a2 || p1 != p2 {
			t.Errorf("churn=%v: same seed gave different request streams", churn)
		}
		a3, p3 := streams(8, churn, 3000, 20)
		if a1 == a3 || p1 == p3 {
			t.Errorf("churn=%v: seeds 7 and 8 gave identical streams", churn)
		}
	}
}

// The n-th candidate depends only on (seed, n): generating the stream in
// pieces, as the ladder does between probes, gives the same candidates.
func TestCandidatesIndependentOfChunking(t *testing.T) {
	whole := newAuditInputs(3, true, 0).candidates(2000)
	in := newAuditInputs(3, true, 0)
	for n := 100; n <= 2000; n += 300 {
		in.candidates(n)
	}
	got := in.candidates(2000)
	for i := range whole {
		if got[i] != whole[i] {
			t.Fatalf("candidate %d differs when generated in chunks", i)
		}
	}
}

// The candidate stream must not depend on the pool size, which a run
// derives from its length.
func TestCandidatesIndependentOfPoolSize(t *testing.T) {
	short := newAuditInputs(5, true, 0).candidates(1500)
	long := newAuditInputs(5, true, 300).candidates(1500)
	for i := range short {
		if short[i] != long[i] {
			t.Fatalf("candidate %d depends on the publish budget", i)
		}
	}
}

func TestCandidateMix(t *testing.T) {
	const n = 4000
	fresh := newAuditInputs(1, false, 0)
	seen := map[string]bool{}
	for _, c := range fresh.candidates(n) {
		if seen[c] {
			t.Fatal("audit-fresh repeated a candidate")
		}
		seen[c] = true
	}
	churn := newAuditInputs(1, true, 0)
	last := map[string]int{}
	repeats := 0
	for i, c := range churn.candidates(n) {
		if j, ok := last[c]; ok {
			repeats++
			if i-j > recentWindow {
				t.Fatalf("candidate %d repeats one %d positions back, beyond the %d-candidate window", i, i-j, recentWindow)
			}
		}
		last[c] = i
	}
	if share := float64(repeats) / n; share < 0.45 || share > 0.55 {
		t.Errorf("audit-churn resampled share %.3f, want about %.2f", share, resampleShare)
	}
}

func TestDeltaKeepsLiveCount(t *testing.T) {
	in := newAuditInputs(1, true, 3)
	if in.publishes() != 3 {
		t.Fatalf("publishes() = %d, want 3", in.publishes())
	}
	for k := 0; k <= 3; k++ {
		if lo, hi := live(k); hi-lo != corpusDocs {
			t.Errorf("live(%d) holds %d documents, want %d", k, hi-lo, corpusDocs)
		}
	}
	req := in.deltaRequest(1)
	if !bytes.Contains(req, []byte(`"remove":"`+in.names[deltaDocs]+`"`)) ||
		!bytes.Contains(req, []byte(`"name":"`+in.names[corpusDocs+deltaDocs]+`"`)) {
		t.Errorf("delta 1 does not add the next pool bodies and remove the oldest live ones:\n%.300s", req)
	}
}
