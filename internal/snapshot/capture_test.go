package snapshot_test

import (
	"bytes"
	"runtime"
	"testing"
	"testing/quick"

	"svtsim/internal/guest"
	"svtsim/internal/hv"
	"svtsim/internal/machine"
	"svtsim/internal/qcheck"
	"svtsim/internal/snapshot"
)

// diskMachine builds, runs, and returns (without shutting down) a nested
// machine whose L2 guest wrote n patterned sectors to disk. The caller
// owns Shutdown.
func diskMachine(t testing.TB, mode hv.Mode, pat byte, n int) (*machine.Machine, *machine.IOStack) {
	t.Helper()
	cfg := machine.DefaultConfig(mode)
	io := machine.WireNestedIO(&cfg, machine.DefaultIOParams())
	m := machine.NewNested(cfg)
	data := make([]byte, 512)
	for i := range data {
		data[i] = pat + byte(i)
	}
	m.InstallL2(io, false, true, func(env *guest.Env) {
		for i := 0; i < n; i++ {
			if !env.Blk.Write(uint64(64+i*8), data) {
				t.Error("guest write failed")
				return
			}
		}
		if _, ok := env.Blk.Read(64, len(data)); !ok {
			t.Error("guest read failed")
		}
	})
	m.Run()
	return m, io
}

func TestRoundTripAllModes(t *testing.T) {
	for _, mode := range hv.AllModes() {
		t.Run(mode.String(), func(t *testing.T) {
			m, io := diskMachine(t, mode, 0x5a, 3)
			defer m.Shutdown()
			before, after, err := snapshot.RoundTrip(m, io)
			if err != nil {
				t.Fatalf("round trip: %v", err)
			}
			if before != after {
				t.Fatalf("digest not stable across restore: %#x -> %#x", before, after)
			}
		})
	}
}

// TestRoundTripQuick is the property form: any (mode, pattern, op count)
// yields a capture whose restore is digest-stable. Machines are
// expensive, so the count is small; the qcheck seed keeps it replayable.
func TestRoundTripQuick(t *testing.T) {
	modes := hv.AllModes()
	prop := func(pat byte, nOps, modeSel uint8) bool {
		mode := modes[int(modeSel)%len(modes)]
		m, io := diskMachine(t, mode, pat, 1+int(nOps)%4)
		defer m.Shutdown()
		before, after, err := snapshot.RoundTrip(m, io)
		return err == nil && before == after
	}
	if err := quick.Check(prop, qcheck.Config(t, 12)); err != nil {
		t.Fatal(err)
	}
}

// TestTransplant restores machine A's snapshot into a freshly built and
// run machine B of identical shape but different data, and checks B now
// carries A's state bit-for-bit — including the disk image.
func TestTransplant(t *testing.T) {
	ma, ioa := diskMachine(t, hv.ModeSWSVt, 0x11, 2)
	defer ma.Shutdown()
	mb, iob := diskMachine(t, hv.ModeSWSVt, 0xee, 2)
	defer mb.Shutdown()

	snap := snapshot.Capture(ma, ioa)
	if got := snapshot.Capture(mb, iob).Digest(); got == snap.Digest() {
		t.Fatal("test premise broken: A and B start with identical state")
	}
	if err := snapshot.Restore(mb, iob, snap); err != nil {
		t.Fatalf("transplant restore: %v", err)
	}
	if got := snapshot.Capture(mb, iob).Digest(); got != snap.Digest() {
		t.Fatalf("transplant not faithful: digest %#x want %#x", got, snap.Digest())
	}
	wantSector, err := ioa.Disk.ReadSync(64, 512)
	if err != nil {
		t.Fatal(err)
	}
	gotSector, err := iob.Disk.ReadSync(64, 512)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotSector, wantSector) {
		t.Fatal("B's disk does not hold A's bytes after transplant")
	}
}

// TestRestoreOfMutatedSnapshotIsFaithful: a faithful restore of a
// corrupt-but-well-formed capture must succeed and land exactly the
// corrupted words — this is the path the broken-restore differential
// test drives, where the damage is only caught downstream by the
// guest-visible oracle.
func TestRestoreOfMutatedSnapshotIsFaithful(t *testing.T) {
	m, io := diskMachine(t, hv.ModeBaseline, 0x33, 1)
	defer m.Shutdown()
	snap := snapshot.Capture(m, io)
	base := snap.Digest()

	sec := snap.Section("vq/l2-blk")
	if sec == nil {
		t.Fatal("no vq/l2-blk section")
	}
	if err := snap.MutateWord("vq/l2-blk", snapshot.QWordAvailIdx, sec.Words[snapshot.QWordAvailIdx]+1); err != nil {
		t.Fatal(err)
	}
	if snap.Digest() == base {
		t.Fatal("mutation did not change the snapshot's digest")
	}
	if err := snapshot.Restore(m, io, snap); err != nil {
		t.Fatalf("restore of mutated snapshot: %v", err)
	}
	if got := snapshot.Capture(m, io).Digest(); got != snap.Digest() {
		t.Fatalf("restore of mutated snapshot not faithful: %#x want %#x", got, snap.Digest())
	}
}

func TestRestoreRejectsMalformedSnapshots(t *testing.T) {
	m, io := diskMachine(t, hv.ModeSWSVt, 0x44, 1)
	defer m.Shutdown()
	snap := snapshot.Capture(m, io)

	t.Run("mode-mismatch", func(t *testing.T) {
		c := snapshot.Capture(m, io)
		if err := c.MutateWord("meta", 0, uint64(hv.ModeBaseline)); err != nil {
			t.Fatal(err)
		}
		if err := snapshot.Restore(m, io, c); err == nil {
			t.Fatal("restore accepted a snapshot from another mode")
		}
	})
	t.Run("ring-inconsistent", func(t *testing.T) {
		c := snapshot.Capture(m, io)
		sec := c.Section("swsvt")
		if sec == nil {
			t.Fatal("no swsvt section")
		}
		// Word 1 is the ToSVt ring tail; bumping it without a matching
		// command makes head/tail disagree with the command count.
		if err := c.MutateWord("swsvt", 1, sec.Words[1]+1); err != nil {
			t.Fatal(err)
		}
		if err := snapshot.Restore(m, io, c); err == nil {
			t.Fatal("restore accepted an inconsistent SVt ring")
		}
	})
	t.Run("length-bomb", func(t *testing.T) {
		c := snapshot.Capture(m, io)
		// Word 0 of an EPT section counts mapped pages; a huge claim
		// must fail the reader's bounds check, not allocate.
		if err := c.MutateWord("ept/01", 0, 1<<40); err != nil {
			t.Fatal(err)
		}
		if err := snapshot.Restore(m, io, c); err == nil {
			t.Fatal("restore accepted a length bomb")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		c := snapshot.Capture(m, io)
		sec := c.Section("core/gpr")
		sec.Words = sec.Words[:len(sec.Words)-1]
		if err := snapshot.Restore(m, io, c); err == nil {
			t.Fatal("restore accepted a truncated section")
		}
	})
	t.Run("trailing-words", func(t *testing.T) {
		c := snapshot.Capture(m, io)
		sec := c.Section("core/gpr")
		sec.Words = append(sec.Words, 7)
		if err := snapshot.Restore(m, io, c); err == nil {
			t.Fatal("restore accepted trailing words")
		}
	})
	t.Run("renamed-section", func(t *testing.T) {
		c := snapshot.Capture(m, io)
		c.Sections[0].Name = "not-meta"
		if err := snapshot.Restore(m, io, c); err == nil {
			t.Fatal("restore accepted a renamed section")
		}
	})
	t.Run("missing-section", func(t *testing.T) {
		c := snapshot.Capture(m, io)
		c.Sections = c.Sections[:len(c.Sections)-1]
		if err := snapshot.Restore(m, io, c); err == nil {
			t.Fatal("restore accepted a snapshot with a missing section")
		}
	})

	// The machine must still be restorable after all the rejected
	// attempts (partial restores are allowed, corruption is not sticky).
	if err := snapshot.Restore(m, io, snap); err != nil {
		t.Fatalf("clean restore after rejections: %v", err)
	}
	if got := snapshot.Capture(m, io).Digest(); got != snap.Digest() {
		t.Fatal("machine did not recover its original state")
	}
}

// allocRatio is the bytes one call of f allocates, as a multiple of
// image bytes. f runs once to warm up before the measured call.
func allocRatio(f func(), image int) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(image)
}

// TestCaptureAllocsPinned pins what capture and restore allocate per
// image byte. Each page-set section is reserved once at its final
// length; a section grown by append instead allocates several times
// its own size and fails the pin.
func TestCaptureAllocsPinned(t *testing.T) {
	const maxCapture, maxRestore = 2.2, 3.3
	for _, mode := range hv.AllModes() {
		t.Run(mode.String(), func(t *testing.T) {
			m, io := diskMachine(t, mode, 0x66, 3)
			defer m.Shutdown()
			snap := snapshot.Capture(m, io)
			image := snap.Bytes()
			capture := allocRatio(func() { snapshot.Capture(m, io) }, image)
			restore := allocRatio(func() {
				if err := snapshot.Restore(m, io, snap); err != nil {
					t.Fatal(err)
				}
			}, image)
			t.Logf("image %d bytes: capture allocates %.2fx, restore %.2fx", image, capture, restore)
			if capture > maxCapture {
				t.Errorf("capture allocates %.2fx the image's %d bytes, want <= %.2fx", capture, image, maxCapture)
			}
			if restore > maxRestore {
				t.Errorf("restore allocates %.2fx the image's %d bytes, want <= %.2fx", restore, image, maxRestore)
			}
		})
	}
}
