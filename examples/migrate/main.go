// Live migration walkthrough: the snapshot layer and the gang-migration
// state machine, bottom-up.
//
// Act 1 captures a nested SW-SVt machine's full architectural state —
// registers, every VMCS, EPT tables, LAPICs, guest memory, disk,
// virtqueue shadows, SVt-thread protocol state — as a canonical
// snapshot and proves the capture→restore→capture round trip is
// digest-stable.
//
// Act 2 runs the differential harness's migrate directive: a schedule is
// executed under every mode while its VM is live-migrated mid-run —
// including a migration forced past its attempt budget into an atomic
// rollback — and the guest-visible outcome must be invariant to all of
// it.
//
// Act 3 packs a fleet and batters it with a seeded migration storm,
// reporting per-mode tail latency next to the recovery counters.
//
// Every run is seed-deterministic: rerunning this program produces
// byte-identical output.
package main

import (
	"fmt"
	"os"

	"svtsim"
)

func main() {
	// --- Act 1: snapshots -------------------------------------------------
	fmt.Println("Act 1: canonical snapshot of a nested SW-SVt machine")
	cfg := svtsim.DefaultConfig(svtsim.SWSVt)
	io := svtsim.WireIO(&cfg)
	m := svtsim.NewNestedMachine(cfg)
	pattern := make([]byte, 512)
	for i := range pattern {
		pattern[i] = byte(3 * i)
	}
	m.InstallL2(io, false, true, func(env *svtsim.GuestEnv) {
		env.Blk.Write(64, pattern)
		env.Blk.Read(64, len(pattern))
	})
	m.Run()
	defer m.Shutdown()

	snap := svtsim.CaptureSnapshot(m, io)
	fmt.Printf("  captured %d sections, %d bytes, digest %#016x\n",
		len(snap.Sections), snap.Bytes(), snap.Digest())

	before, after, err := svtsim.SnapshotRoundTrip(m, io)
	if err != nil {
		fmt.Fprintln(os.Stderr, "round trip failed:", err)
		os.Exit(1)
	}
	fmt.Printf("  restore round trip: %#016x -> %#016x (stable: %v)\n", before, after, before == after)

	// --- Act 2: migration transparency ------------------------------------
	fmt.Println("\nAct 2: guest-visible outcome invariant under live migration")
	fmt.Println("  clean move after op 2, forced rollback after op 5 (fails=3):")
	if err := svtsim.CheckMigratedSchedule(os.Stdout, 7, []svtsim.MigratePoint{
		{After: 2, Fails: 0},
		{After: 5, Fails: 3},
	}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// --- Act 3: the storm --------------------------------------------------
	fmt.Println("\nAct 3: 8 VMs per mode under a 24-event migration storm (seed 42)")
	sess, err := svtsim.NewSession()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, r := range sess.StormTable(svtsim.AllModes(), 8, 24, 42) {
		fmt.Println(" ", r.StatsLine())
	}
	fmt.Println("\nRollbacks are atomic: a gang that exhausts its attempts keeps its")
	fmt.Println("source placement and loses only time; a VM whose migrations keep")
	fmt.Println("failing trips its placement breaker and stops being asked to move.")
}
