package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 100},
		// Overlapping children (two concurrent calls) count once.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "a", Start: 20, End: 40},
		// A child running past its parent is clipped to the parent.
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120},
		// A grandchild is charged to its own parent only.
		{ID: 5, Parent: 4, Name: "c", Start: 95, End: 105},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"pass": 100 - 30 - 10, // [10,40) and [90,100)
		"a":    20 + 20,
		"b":    30 - 10,
		"c":    10,
	}
	for n, w := range want {
		if got[n] != w {
			t.Errorf("self(%s) = %d, want %d", n, got[n], w)
		}
	}
}

func TestRecorderNilIsFree(t *testing.T) {
	var r *recorder
	id := r.begin("x", 0, 0)
	r.end(id)
	ran := false
	r.timed("y", id, 0, func() { ran = true })
	if !ran || id != 0 || r.snapshot() != nil {
		t.Fatal("nil recorder must run the call and record nothing")
	}
}

func TestRecorderWritesParentsAndRequestIDs(t *testing.T) {
	r := newRecorder()
	root := r.begin("request", 0, 7)
	r.timed("server.Client.Submit", root, 7, func() {})
	r.end(root)
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := r.write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []span
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Parent != got[0].ID || got[1].Req != 7 || got[0].End < got[1].End {
		t.Fatalf("spans = %+v", got)
	}
}
