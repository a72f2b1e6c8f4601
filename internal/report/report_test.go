package report

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"svtsim/internal/exp"
)

func TestTable1Renders(t *testing.T) {
	var b bytes.Buffer
	NewRenderer(exp.NewSession()).Table1(&b, 300)
	out := b.String()
	for _, want := range []string{"Table 1", "L2", "Switch L2<->L0", "L0 handler", "total", "10.40"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestTable3CountsRealSource(t *testing.T) {
	var b bytes.Buffer
	if err := NewRenderer(exp.NewSession()).Table3(&b, "../.."); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "KVM analogue") {
		t.Fatal("table 3 rows missing")
	}
	// The KVM-analogue row must count thousands of lines from real source.
	if strings.Contains(out, "hypervisor, SVt core)          0") {
		t.Fatal("line counting found nothing")
	}
}

// A root without the sources fails and names the missing directory
// instead of printing zero lines of code.
func TestTable3MissingRootFails(t *testing.T) {
	var b bytes.Buffer
	root := filepath.Join(t.TempDir(), "no-such-checkout")
	err := NewRenderer(exp.NewSession()).Table3(&b, root)
	if err == nil {
		t.Fatalf("want an error, got output:\n%s", b.String())
	}
	if want := filepath.Join(root, "internal/virtio"); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name %s", err, want)
	}
	if b.Len() != 0 {
		t.Fatalf("failed table 3 wrote:\n%s", b.String())
	}
}

func TestTable4AndFigure6(t *testing.T) {
	var b bytes.Buffer
	NewRenderer(exp.NewSession()).Table4(&b)
	if !strings.Contains(b.String(), "E5-2630v3") {
		t.Fatal("table 4 content")
	}
	b.Reset()
	NewRenderer(exp.NewSession()).Figure6(&b, 150)
	out := b.String()
	for _, want := range []string{"L0", "SW SVt", "HW SVt", "1.23x"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure 6 missing %q", want)
		}
	}
}

func TestChannelsRenders(t *testing.T) {
	var b bytes.Buffer
	NewRenderer(exp.NewSession()).Channels(&b, true)
	out := b.String()
	for _, want := range []string{"poll", "mwait", "mutex", "cross-numa"} {
		if !strings.Contains(out, want) {
			t.Fatalf("channels missing %q", want)
		}
	}
}

func TestProfilesRender(t *testing.T) {
	var b bytes.Buffer
	NewRenderer(exp.NewSession()).Profiles(&b)
	if !strings.Contains(b.String(), "EPT_MISCONFIG") {
		t.Fatal("profiles must include EPT_MISCONFIG")
	}
}
