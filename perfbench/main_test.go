package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// fakeWorkload reports a fixed digest and can fail or panic on cue.
type fakeWorkload struct {
	digests []string // digest of each successive pass (the last repeats)
	pin     string
	failOps int
	panics  bool
	passes  int
}

func (f *fakeWorkload) setUp(*runner) error { return nil }
func (f *fakeWorkload) tearDown()           {}
func (f *fakeWorkload) pinned() string      { return f.pin }
func (f *fakeWorkload) pass(*runner) passOut {
	f.passes++
	if f.panics {
		panic("simulation blew up")
	}
	out := passOut{attempted: 4, units: 1, ops: []op{{ms: 1}}}
	out.digest = f.digests[min(f.passes, len(f.digests))-1]
	for i := 0; i < f.failOps; i++ {
		out.fail("op %d", i)
	}
	return out
}

func TestFailuresAreCountedAgainstAttempts(t *testing.T) {
	const budget = 0 // one pass
	cases := []struct {
		name       string
		w          *fakeWorkload
		seed       int64
		wantFailed int
	}{
		{"pinned digest holds", &fakeWorkload{digests: []string{"d1"}, pin: "d1"}, defaultSeed, 0},
		{"corrupted pinned digest", &fakeWorkload{digests: []string{"d1"}, pin: "d1-corrupt"}, defaultSeed, 1},
		{"other seed, repeatable", &fakeWorkload{digests: []string{"d1"}}, 7, 0},
		{"failed operations", &fakeWorkload{digests: []string{"d1"}, pin: "d1", failOps: 3}, defaultSeed, 3},
		{"panicking pass", &fakeWorkload{digests: []string{"d1"}, pin: "d1", panics: true}, defaultSeed, 2},
	}
	for _, c := range cases {
		m := measure(c.w, &runner{}, c.seed, budget)
		if m.failed != c.wantFailed {
			t.Errorf("%s: failed = %d, want %d", c.name, m.failed, c.wantFailed)
		}
		if m.attempted < m.failed || m.attempted == 0 {
			t.Errorf("%s: attempted = %d with %d failed", c.name, m.attempted, m.failed)
		}
	}
}

// TestNonRepeatingOutputIsCaught: for seeds without a pinned digest,
// every pass must reproduce the first pass's outputs.
func TestNonRepeatingOutputIsCaught(t *testing.T) {
	w := &fakeWorkload{digests: []string{"d1", "d1", "d2"}}
	m := measure(w, &runner{}, 7, 100*time.Millisecond)
	if len(m.passes) < 3 || m.failed != len(m.passes)-2 {
		t.Fatalf("%d passes, %d failed; want every pass from the third caught", len(m.passes), m.failed)
	}
}

// corruptPin wraps a real workload with a wrong pinned digest.
type corruptPin struct{ workload }

func (corruptPin) pinned() string { return "00000000000000000000000000000000" }

func TestCorruptedPinnedDigestFailsRealWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation pass")
	}
	w, err := newWorkload("svtsimd-mix", defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if m := measure(w, &runner{}, defaultSeed, 0); m.failed != 0 {
		t.Fatalf("pinned digest does not hold: %d failed", m.failed)
	}
	if m := measure(corruptPin{w}, &runner{}, defaultSeed, 0); m.failed != 1 {
		t.Fatalf("corrupted pin: failed = %d, want 1", m.failed)
	}
}

// benchSpec is the part of BENCHMARK.json the smoke tests check.
type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]metric
}

// smoke runs one workload for a single pass and decodes its result line.
func smoke(t *testing.T, name string, traced bool) result {
	t.Helper()
	trace := "0"
	if traced {
		trace = "1"
	}
	var out, errb bytes.Buffer
	code := realMain([]string{"--workload", name, "--seed", "1", "--seconds", "0.01",
		"--trace", trace, "--out", t.TempDir()}, &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", name, err, out.String())
	}
	if code != 0 || !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("%s (trace=%s): exit %d, result %+v\nstderr:\n%s", name, trace, code, r, errb.String())
	}
	return r
}

func TestSmokeEachWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			e2e := smoke(t, name, false)
			if len(e2e.Metrics) != len(spec.EndToEnd) {
				t.Errorf("end-to-end metrics %v, BENCHMARK.json lists %d", sortedKeys(e2e.Metrics), len(spec.EndToEnd))
			}
			for _, m := range spec.EndToEnd {
				got, ok := e2e.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("end-to-end %s = %+v (present %v), want unit %s and a positive value", m.Name, got, ok, m.Unit)
				}
			}
			layers := smoke(t, name, true)
			if len(layers.Metrics) != len(spec.PerLayer) {
				t.Errorf("per-layer metrics %v, BENCHMARK.json lists %d", sortedKeys(layers.Metrics), len(spec.PerLayer))
			}
			for _, m := range spec.PerLayer {
				if got, ok := layers.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s = %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
		})
	}
}
