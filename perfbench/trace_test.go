package main

import (
	"bufio"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Root: 1, Layer: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Root: 1, Layer: "frontend.get", Start: 10, End: 40},
		// Overlaps the first child: the overlap is subtracted once.
		{ID: 3, Parent: 1, Root: 1, Layer: "probe.partition.read", Start: 30, End: 50},
		// A grandchild counts against its parent only.
		{ID: 4, Parent: 2, Root: 1, Layer: "probe.kvstore.get", Start: 15, End: 20},
		// Sticks out past the root: clipped to the parent's interval.
		{ID: 5, Parent: 1, Root: 1, Layer: "http.put", Start: 90, End: 130},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"op":                   100 - 40 - 10, // [10,50) and [90,100) covered
		"frontend.get":         30 - 5,
		"probe.partition.read": 20,
		"probe.kvstore.get":    5,
		"http.put":             40,
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self(%s) = %v, want %v", layer, got[layer], w)
		}
	}
}

func TestCoveredMergesIntervals(t *testing.T) {
	kids := []span{{Start: 5, End: 10}, {Start: 0, End: 3}, {Start: 8, End: 12}, {Start: 20, End: 25}}
	if got := covered(0, 22, kids); got != 3+7+2 {
		t.Errorf("covered = %d, want 12", got)
	}
	if got := covered(0, 10, nil); got != 0 {
		t.Errorf("no children covered %d", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	sp := tr.begin("op", 0, 0)
	tr.end(sp)
	tr.gauge("x", 1)
	if sp.ID != 0 {
		t.Errorf("nil tracer issued span id %d", sp.ID)
	}
}

func TestTracerWritesSpansAndGauges(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op", 0, 0)
	child := tr.begin("frontend.put", root.ID, root.ID)
	tr.end(child)
	tr.end(root)
	tr.gauge("eunomia.dc0.pending", 3)
	if child.Root != root.ID || root.Root != root.ID {
		t.Errorf("root ids: child %d root %d, want %d", child.Root, root.Root, root.ID)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	for sc := bufio.NewScanner(f); sc.Scan(); {
		lines++
	}
	if lines != 3 {
		t.Errorf("wrote %d lines, want 3", lines)
	}
}
