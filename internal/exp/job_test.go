package exp

import (
	"context"
	"errors"
	"testing"

	"svtsim/internal/host"
)

func jobTestSession(t *testing.T) *Session {
	t.Helper()
	s := NewSession()
	if err := s.SetTopology(host.Topology{Sockets: 1, CoresPerSocket: 2, ThreadsPerCore: 2}); err != nil {
		t.Fatal(err)
	}
	return s
}

// cellJobs are the jobs that fan one cell per mode out on the session's
// pool, each run over every mode at a small size.
var cellJobs = []struct {
	stage string
	run   func(s *Session, ctx context.Context, pr ProgressFunc) error
}{
	{"storm", func(s *Session, ctx context.Context, pr ProgressFunc) error {
		_, err := s.StormTableJob(ctx, AllModes(), 2, 4, 42, pr)
		return err
	}},
	{"lb", func(s *Session, ctx context.Context, pr ProgressFunc) error {
		_, err := s.LoadBalancerTableJob(ctx, AllModes(), 2, "steady", 42, 1000, pr)
		return err
	}},
	{"faultgrid", func(s *Session, ctx context.Context, pr ProgressFunc) error {
		var cells []FaultCell
		for _, m := range AllModes() {
			cells = append(cells, FaultCell{Mode: m, N: 20})
		}
		_, err := s.FaultSweepGridJob(ctx, cells, pr)
		return err
	}},
}

// TestJobProgressAtPoolWidth2: with cells running on two workers, the
// progress events of each pool-fanned job still arrive one at a time
// with Done running 1..Total.
func TestJobProgressAtPoolWidth2(t *testing.T) {
	for _, j := range cellJobs {
		s := jobTestSession(t)
		s.SetParallelism(2)
		var evs []ProgressEvent
		if err := j.run(s, context.Background(), func(e ProgressEvent) { evs = append(evs, e) }); err != nil {
			t.Fatalf("%s: %v", j.stage, err)
		}
		total := len(AllModes())
		if len(evs) != total {
			t.Fatalf("%s: %d events, want %d", j.stage, len(evs), total)
		}
		for i, e := range evs {
			if e.Done != i+1 || e.Total != total || e.Stage != j.stage {
				t.Fatalf("%s: event %d = %+v", j.stage, i, e)
			}
		}
	}
}

// TestJobCancelAtPoolWidth2: cancelling the context from the first
// progress event stops a pool-fanned job before its remaining cells
// start, and the job reports context.Canceled.
func TestJobCancelAtPoolWidth2(t *testing.T) {
	for _, j := range cellJobs {
		s := jobTestSession(t)
		s.SetParallelism(2)
		ctx, cancel := context.WithCancel(context.Background())
		err := j.run(s, ctx, func(ProgressEvent) { cancel() })
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", j.stage, err)
		}
	}
}

// TestJobCancellation: a cancelled context stops the job between steps
// with the context's error.
func TestJobCancellation(t *testing.T) {
	s := jobTestSession(t)
	ctx, cancel := context.WithCancel(context.Background())

	// Cancel after the first progress event; the job must stop before
	// finishing all points and report ctx.Err().
	var seen int
	_, err := s.DensitySweepJob(ctx, AllModes(), 3, 500, func(ProgressEvent) {
		seen++
		cancel()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if seen != 1 {
		t.Fatalf("job ran %d steps after cancellation, want 1", seen)
	}

	already, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := s.StormTableJob(already, AllModes(), 2, 4, 1, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("StormTableJob err = %v, want context.Canceled", err)
	}
	if _, err := s.FaultSweepGridJob(already, []FaultCell{{Mode: AllModes()[0], N: 10}}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("FaultSweepGridJob err = %v, want context.Canceled", err)
	}
	if _, err := s.LoadBalancerTableJob(already, AllModes(), 2, "steady", 1, 1000, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("LoadBalancerTableJob err = %v, want context.Canceled", err)
	}
}

// TestProgressEventsOrdered: events carry monotonically increasing Done
// out of a fixed Total.
func TestProgressEventsOrdered(t *testing.T) {
	s := jobTestSession(t)
	var evs []ProgressEvent
	_, err := s.DensitySweepJob(context.Background(), AllModes()[:2], 2, 500, func(e ProgressEvent) {
		evs = append(evs, e)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 4 {
		t.Fatalf("%d events, want 4", len(evs))
	}
	for i, e := range evs {
		if e.Done != i+1 || e.Total != 4 || e.Stage != "density" {
			t.Fatalf("event %d = %+v", i, e)
		}
	}
}
