package main

import (
	"testing"
	"time"
)

func TestLayerSelfTimesAddUpToRoot(t *testing.T) {
	tr := newTracer(true)
	for req := 0; req < 3; req++ {
		rt := tr.begin("root", req, root)
		for _, name := range []string{"a", "b"} {
			sp := tr.begin(name, req, rt)
			inner := tr.begin(name+".inner", req, sp)
			time.Sleep(time.Millisecond)
			tr.end(inner)
			tr.end(sp)
		}
		tr.end(rt)
	}
	lt := tr.layers()
	if len(lt.dur["root"]) != 3 || len(lt.self["a.inner"]) != 3 {
		t.Fatalf("spans by name: %v", lt.dur)
	}
	var sum float64
	for name, selfs := range lt.self {
		if name == "root" {
			continue
		}
		for _, s := range selfs {
			if s < 0 {
				t.Fatalf("%s: negative self time %v", name, s)
			}
			sum += s
		}
	}
	// Every layer's self time plus the roots' own self time is exactly
	// the roots' duration; the children cover nearly all of it.
	var roots, rootSelf float64
	for i, d := range lt.dur["root"] {
		roots += d
		rootSelf += lt.self["root"][i]
	}
	if diff := roots - rootSelf - sum; diff < -1 || diff > 1 {
		t.Errorf("self times sum to %v, roots minus their own self time %v", sum, roots-rootSelf)
	}
	if c := lt.covered / lt.rootTotal; c < 1-layerSumTol || c > 1 {
		t.Errorf("coverage %v", c)
	}
}

func TestUntracedTracerKeepsOnlyRoots(t *testing.T) {
	tr := newTracer(false)
	rt := tr.begin("root", 0, root)
	sp := tr.begin("child", 0, rt)
	tr.end(tr.begin("grandchild", 0, sp))
	tr.end(sp)
	tr.end(rt)
	if len(tr.spans) != 1 || tr.spans[0].name != "root" {
		t.Fatalf("spans %+v, want the root alone", tr.spans)
	}
	var nilTracer *tracer
	if got := nilTracer.begin("root", 0, root); got != noSpan {
		t.Fatalf("nil tracer recorded span %d", got)
	}
	nilTracer.end(noSpan)
}
