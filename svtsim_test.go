package svtsim

import (
	"bytes"
	"strings"
	"testing"
)

// newTestSession builds a session from opts, failing the test on error.
func newTestSession(tb testing.TB, opts ...Option) *Session {
	tb.Helper()
	s, err := NewSession(opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func TestFacadeCPUIDLadder(t *testing.T) {
	sess := newTestSession(t)
	l0 := sess.CPUIDNative(100)
	l2 := sess.CPUIDNested(Baseline, 100)
	hw := sess.CPUIDNested(HWSVt, 100)
	if !(l0.PerOp < hw.PerOp && hw.PerOp < l2.PerOp) {
		t.Fatalf("ladder violated: %v %v %v", l0.PerOp, hw.PerOp, l2.PerOp)
	}
}

func TestFacadeMachineConstruction(t *testing.T) {
	for _, mode := range AllModes() {
		cfg := DefaultConfig(mode)
		io := WireIO(&cfg)
		m := NewNestedMachine(cfg)
		if m == nil || io == nil {
			t.Fatalf("mode %v: construction failed", mode)
		}
		m.Shutdown()
	}
}

func TestFacadeCostModel(t *testing.T) {
	c := BaselineCosts()
	if c.ExitLeg() <= 0 || c.EntryLeg() <= 0 {
		t.Fatal("cost model legs must be positive")
	}
}

func TestReportsRender(t *testing.T) {
	sess := newTestSession(t)
	var b bytes.Buffer
	sess.ReportTable4(&b)
	if !strings.Contains(b.String(), "Table 4") {
		t.Fatal("table 4 render")
	}
	b.Reset()
	if err := sess.ReportTable3(&b, "."); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "KVM analogue") {
		t.Fatal("table 3 render")
	}
	b.Reset()
	sess.ReportTable1(&b, 200)
	out := b.String()
	for _, want := range []string{"Table 1", "L0 handler", "10.40"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table 1 render missing %q", want)
		}
	}
	b.Reset()
	sess.ReportFigure6(&b, 100)
	if !strings.Contains(b.String(), "HW SVt") {
		t.Fatal("figure 6 render")
	}
}

func TestChannelStudyFacade(t *testing.T) {
	pts := newTestSession(t).ChannelStudy(50, []Time{0})
	if len(pts) != 9 { // 3 policies x 3 placements
		t.Fatalf("points = %d, want 9", len(pts))
	}
}
