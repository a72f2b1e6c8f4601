package exp

import (
	"testing"

	"svtsim/internal/host"
	"svtsim/internal/sim"
)

// testTopo2x2x2 is the smallest topology with a real socket boundary.
func testTopo2x2x2() host.Topology {
	return host.Topology{Sockets: 2, CoresPerSocket: 2, ThreadsPerCore: 2}
}

// smallFleetSpec keeps the fleet-replay tests fast: a 2x2x2 host, half
// a millisecond of 500ns ticks.
func smallFleetSpec() FleetReplaySpec {
	spec := DefaultFleetReplaySpec()
	spec.Topo = testTopo2x2x2()
	spec.Dur = 500 * sim.Microsecond
	spec.Tick = 500 * sim.Nanosecond
	spec.CrossEvery = 16
	return spec
}

// TestFleetReplayGolden pins the macro's outcome — event, tick and IPI
// counts plus the digest over per-context ticks, IPI arrivals and
// per-core attribution. Any change to the engine's dispatch order
// (the (at, seq) comparator, FIFO within a timestamp) moves it.
func TestFleetReplayGolden(t *testing.T) {
	got := FleetReplay(smallFleetSpec())
	want := FleetReplayResult{Events: 8038, Ticks: 7574, IPIs: 464,
		Elapsed: 500 * sim.Microsecond, Digest: 0x79319419f1941518}
	if got != want {
		t.Fatalf("FleetReplay = %+v, want %+v", got, want)
	}
}
