package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"svtsim/internal/fault"
	"svtsim/internal/hv"
)

// fleetGoldenLines renders every fleet experiment that reaches the host
// replay — density, migration storm, fault storm (beside a plain fault
// row) and every load-balancer scenario — on the 2x2x2 test host, one
// StatsLine per row.
func fleetGoldenLines(t *testing.T) []string {
	t.Helper()
	s := NewSession()
	if err := s.SetTopology(testTopo2x2x2()); err != nil {
		t.Fatal(err)
	}
	s.SetParallelism(2)
	var lines []string
	for _, r := range s.DensitySweep(AllModes(), 3, 500) {
		for _, pt := range r.Points {
			lines = append(lines, pt.StatsLine())
		}
		lines = append(lines, r.SummaryLine())
	}
	for _, r := range s.StormTable(AllModes(), 6, 12, 42) {
		lines = append(lines, r.StatsLine())
	}
	spec := &fault.Spec{Seed: 11, Sites: []fault.SiteConfig{
		{Site: fault.SiteMigrateTransfer, Rate: 0.6, Drop: true},
	}}
	for _, r := range s.FaultSweepGrid([]FaultCell{
		{Mode: hv.ModeBaseline, Spec: spec, N: 6, Storms: 16, StormSeed: 7},
		{Mode: hv.ModeSWSVt, N: 200},
	}) {
		lines = append(lines, r.StatsLine())
	}
	for _, r := range s.LoadBalancerSweep(AllModes(), 3, 42, 1000) {
		lines = append(lines, r.StatsLine())
	}
	return lines
}

// TestFleetGolden pins the bytes of every fleet pipeline's output. The
// pool-width tests only compare the code against itself; this digest
// catches a refactor that moves a phase-1 run, a demand, a storm plan
// or a migration price.
func TestFleetGolden(t *testing.T) {
	lines := fleetGoldenLines(t)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	const want = "4ed360fdb58d94893f460a6bf9636035dc664cd2bf95167f56f73420dce3efc4"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("fleet golden digest = %s, want %s; %d lines:\n%s",
			got, want, len(lines), strings.Join(lines, "\n"))
	}
}
