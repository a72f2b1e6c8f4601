package exp

import (
	"reflect"
	"strings"
	"testing"

	"svtsim/internal/fault"
	"svtsim/internal/hv"
)

// TestMigrationStormDeterministicAcrossPool: the storm table built on a
// serial pool is byte-identical (per StatsLine) to the same table on a
// wide pool — the CI smoke job's contract.
func TestMigrationStormDeterministicAcrossPool(t *testing.T) {
	run := func(workers int) []string {
		s := NewSession()
		s.SetParallelism(workers)
		var lines []string
		for _, r := range s.StormTable(hv.AllModes(), 6, 12, 42) {
			lines = append(lines, r.StatsLine())
		}
		return lines
	}
	serial := run(1)
	wide := run(8)
	for i := range serial {
		if serial[i] != wide[i] {
			t.Errorf("row %d diverges across pool widths:\nserial: %s\nwide:   %s", i, serial[i], wide[i])
		}
	}
	// And the storm actually stormed somewhere.
	any := false
	for _, line := range serial {
		if !strings.Contains(line, "migrations=0 ") {
			any = true
		}
	}
	if !any {
		t.Fatalf("no storm event completed a migration in any mode:\n%s", strings.Join(serial, "\n"))
	}
}

// TestMigrationStormZeroEventsIsQuiet is the exp-level zero-fault
// golden: with the storm machinery enabled but no events firing, the
// consolidation outcome is bit-identical regardless of the storm seed —
// i.e. identical to a run with migrations disabled.
func TestMigrationStormZeroEventsIsQuiet(t *testing.T) {
	s := NewSession()
	a := s.MigrationStorm(hv.ModeSWSVt, 6, 0, 42)
	b := s.MigrationStorm(hv.ModeSWSVt, 6, 0, 99)
	if a.GangMigrations != 0 || a.GangRollbacks != 0 || a.GangRetries != 0 || a.GangSkipped != 0 || a.MigrationDowntime != 0 {
		t.Fatalf("zero-event storm produced migration activity: %+v", a)
	}
	if a.Elapsed != b.Elapsed || a.WorstP99Us != b.WorstP99Us ||
		a.AggThroughput != b.AggThroughput || a.MeanSlowdown != b.MeanSlowdown {
		t.Fatalf("zero-event storms diverge by seed:\n%+v\nvs\n%+v", a, b)
	}
}

// TestMigrationStormSlowsTheFleet: a real storm costs the fleet time
// relative to the quiet consolidation of the same VMs.
func TestMigrationStormSlowsTheFleet(t *testing.T) {
	s := NewSession()
	quiet := s.MigrationStorm(hv.ModeSWSVt, 6, 0, 42)
	stormy := s.MigrationStorm(hv.ModeSWSVt, 6, 16, 42)
	if stormy.GangMigrations == 0 {
		t.Skip("no migration found a destination; nothing to compare")
	}
	if stormy.Elapsed < quiet.Elapsed {
		t.Errorf("storm finished earlier than quiet run: %v < %v", stormy.Elapsed, quiet.Elapsed)
	}
	if stormy.MigrationDowntime == 0 {
		t.Error("completed migrations reported zero downtime")
	}
}

// TestFaultSweepGridStormRow: a grid cell with Storms > 0 runs the
// migration-storm sweep with its fault spec armed on the host engine,
// so the migrate/* sites actually fire mid-migration; its stats line
// carries the gang counters while plain rows keep the historical format.
func TestFaultSweepGridStormRow(t *testing.T) {
	spec := &fault.Spec{Seed: 11, Sites: []fault.SiteConfig{
		{Site: fault.SiteMigrateTransfer, Rate: 0.6, Drop: true},
	}}
	s := NewSession()
	rows := s.FaultSweepGrid([]FaultCell{
		{Mode: hv.ModeSWSVt, N: 200},
		{Mode: hv.ModeSWSVt, Spec: spec, N: 6, Storms: 16, StormSeed: 7},
	})
	plain, storm := rows[0], rows[1]
	if plain.Storms != 0 || storm.Storms != 16 {
		t.Fatalf("storm tagging wrong: plain=%d storm=%d", plain.Storms, storm.Storms)
	}
	if storm.FaultFires == 0 {
		t.Error("armed migrate/transfer site never fired during the storm")
	}
	if storm.GangRetries == 0 && storm.GangRollbacks == 0 {
		t.Error("a 60% transfer-drop storm produced neither retries nor rollbacks")
	}
	if got := plain.StatsLine(); len(got) == 0 || containsStormCounters(got) {
		t.Errorf("plain row's stats line changed format: %s", got)
	}
	if got := storm.StatsLine(); !containsStormCounters(got) {
		t.Errorf("storm row's stats line is missing gang counters: %s", got)
	}

	// Serial vs parallel grid determinism, storm rows included.
	lines := func(workers int) []string {
		sess := NewSession()
		sess.SetParallelism(workers)
		var out []string
		for _, r := range sess.FaultSweepGrid([]FaultCell{
			{Mode: hv.ModeBaseline, Spec: spec, N: 4, Storms: 8, StormSeed: 3},
			{Mode: hv.ModeSWSVt, Spec: spec, N: 4, Storms: 8, StormSeed: 3},
		}) {
			out = append(out, r.StatsLine())
		}
		return out
	}
	a, b := lines(1), lines(8)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("grid row %d diverges across pool widths:\n%s\nvs\n%s", i, a[i], b[i])
		}
	}
}

func containsStormCounters(line string) bool {
	return strings.Contains(line, " storms=")
}

// TestDensityCacheReusesRuns: a sweep over packing levels serves most
// VMs from cached phase-1 runs instead of cold simulations — and the
// cache-served results are bit-identical to cold runs.
func TestDensityCacheReusesRuns(t *testing.T) {
	s := NewSession()
	s.SetParallelism(1) // concurrent misses may compute a key twice
	cache := &vmCache{}
	var last DensityPoint
	const kmax = 8
	for k := 1; k <= kmax; k++ {
		last = s.consolidate(hv.ModeSWSVt, k, cache)
	}
	lookups := kmax * (kmax + 1) / 2
	if n := len(cache.m); n == 0 || n >= lookups {
		t.Fatalf("cache holds %d runs for %d lookups, want reuse", n, lookups)
	}

	// The cache-served point must be indistinguishable from a cold one.
	cold := s.Consolidation(hv.ModeSWSVt, kmax)
	if !reflect.DeepEqual(cold, last) {
		t.Fatalf("cache-served point diverges from cold run:\n%+v\nvs\n%+v", last, cold)
	}

	// Every VM's demand was priced from a real image.
	for _, key := range []string{"cpuid", "netrr", "memcached"} {
		found := false
		for k, r := range cache.m {
			if k.class == key && r.imageBytes > 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("no image size cached for %s VMs", key)
		}
	}
}
