// Package exp contains the experiment harnesses that regenerate every
// table and figure of the paper's evaluation (§6). Each experiment
// assembles a machine, runs the workload deterministically, and returns
// structured results; the report package renders them in the paper's
// format, and both the command-line tools and the benchmark suite reuse
// them.
package exp

import (
	"svtsim/internal/cpu"
	"svtsim/internal/guest"
	"svtsim/internal/hv"
	"svtsim/internal/isa"
	"svtsim/internal/machine"
	"svtsim/internal/netsim"
	"svtsim/internal/sim"
	"svtsim/internal/stats"
	"svtsim/internal/workload"
)

// AllModes returns the modes under test in the paper's presentation
// order. The result is a fresh slice each call, so callers may reorder
// or trim it freely.
func AllModes() []hv.Mode {
	return []hv.Mode{hv.ModeBaseline, hv.ModeSWSVt, hv.ModeHWSVt}
}

// cpuidLoop is the §6.1 micro-benchmark body: n cpuid instructions,
// each after compute of surrounding work (the channel study's "dependent
// register increments that simulate a variable workload"; 0 elsewhere).
func cpuidLoop(n int, compute sim.Time) func(*cpu.Port) {
	return func(p *cpu.Port) {
		for j := 0; j < n; j++ {
			if compute > 0 {
				p.Compute(compute)
			}
			p.Exec(isa.CPUID(1))
		}
	}
}

// CPUIDResult is one Figure 6 bar.
type CPUIDResult struct {
	Label     string
	PerOp     sim.Time
	Breakdown *sim.Ledger // Table 1 stages (nested runs only)
}

// CPUIDNative measures the Figure 6 "L0" bar. With no virtualization
// nothing traps, so every iteration costs exactly the native cpuid
// latency.
func (s *Session) CPUIDNative(n int) CPUIDResult {
	return CPUIDResult{Label: "L0", PerOp: s.config(hv.ModeBaseline).Costs.InstrCPUID}
}

// CPUIDSingleLevel measures the Figure 6 "L1" bar.
func (s *Session) CPUIDSingleLevel(n int) CPUIDResult {
	m := machine.NewSingleLevel(s.config(hv.ModeBaseline))
	m.SetGuestWorkload(cpuidLoop(n, 0))
	s.runSingle(m)
	return CPUIDResult{Label: "L1", PerOp: m.Now() / sim.Time(n)}
}

// CPUIDNested measures a nested cpuid run (Figure 6 "L2", "SW SVt" and
// "HW SVt" bars, and the Table 1 breakdown for the baseline).
func (s *Session) CPUIDNested(mode hv.Mode, n int) CPUIDResult {
	m := machine.NewNested(s.config(mode))
	led := &sim.Ledger{}
	m.Eng.SetLedger(led)
	m.SetL2Workload(cpuidLoop(n, 0))
	s.run(m)
	m.Shutdown()
	label := "L2"
	switch mode {
	case hv.ModeSWSVt:
		label = "SW SVt"
	case hv.ModeHWSVt:
		label = "HW SVt"
	}
	return CPUIDResult{Label: label, PerOp: m.Now() / sim.Time(n), Breakdown: led}
}

// CPUIDNestedNoShadowing runs the baseline nested cpuid with hardware
// VMCS shadowing disabled (the §2.1 ablation).
func (s *Session) CPUIDNestedNoShadowing(n int) CPUIDResult {
	cfg := s.config(hv.ModeBaseline)
	cfg.DisableVMCSShadowing = true
	m := machine.NewNested(cfg)
	m.SetL2Workload(cpuidLoop(n, 0))
	s.run(m)
	m.Shutdown()
	return CPUIDResult{Label: "L2 (no shadowing)", PerOp: m.Now() / sim.Time(n)}
}

// CPUIDNestedWithThunkRegs runs nested cpuid with a chosen number of
// software-thunk registers (the "dozens of registers" sensitivity).
func (s *Session) CPUIDNestedWithThunkRegs(mode hv.Mode, regs, n int) CPUIDResult {
	cfg := s.config(mode)
	cfg.Costs.ThunkRegs = regs
	m := machine.NewNested(cfg)
	m.SetL2Workload(cpuidLoop(n, 0))
	s.run(m)
	m.Shutdown()
	return CPUIDResult{Label: "thunk-sweep", PerOp: m.Now() / sim.Time(n)}
}

// IOResult is one Figure 7 measurement.
type IOResult struct {
	Mode      hv.Mode
	MeanUs    float64
	P50Us     float64
	P99Us     float64
	Mbps      float64
	KBs       float64
	ExitStats *hv.Profile // L0's nested-exit profile
}

// netMachine builds a nested machine with the network stack and a peer
// factory hook.
func (s *Session) netMachine(mode hv.Mode) (*machine.Machine, *machine.IOStack) {
	cfg := s.config(mode)
	io := machine.WireNestedIO(&cfg, machine.DefaultIOParams())
	m := machine.NewNested(cfg)
	return m, io
}

// NetLatency runs netperf TCP_RR (Figure 7 "Network latency"): n 1-byte
// transactions against an echoing peer.
func (s *Session) NetLatency(mode hv.Mode, n int) IOResult {
	m, io := s.netMachine(mode)
	io.NIC.Peer = &netsim.EchoPeer{
		Eng: m.Eng, Back: io.LinkIn, Dst: io.NIC,
		ServiceTime: 5 * sim.Microsecond, RespSize: 1,
	}
	w := &workload.NetRR{N: n, ReqSize: 1, TCPModel: true, SMP: true}
	m.InstallL2(io, true, false, func(env *guest.Env) { w.Run(env) })
	s.run(m)
	m.Shutdown()
	sum, _ := stats.Summarize(w.Lat)
	return IOResult{Mode: mode, MeanUs: sum.Mean, P50Us: sum.P50, P99Us: sum.P99, ExitStats: &m.L0.NestedProf}
}

// NetBandwidth runs netperf TCP_STREAM (Figure 7 "Network bandwidth"):
// 16 KB messages for the given duration; throughput measured at the peer.
func (s *Session) NetBandwidth(mode hv.Mode, d sim.Time) IOResult {
	m, io := s.netMachine(mode)
	peer := &netsim.AckPeer{
		Eng: m.Eng, Back: io.LinkIn, Dst: io.NIC,
		AckEvery: workload.StreamAckEvery, AckSize: 64,
	}
	io.NIC.Peer = peer
	io.L0Net.TxCoalesce = 16
	io.SetL1NetTxCoalesce(16)
	w := &workload.NetStream{Duration: d, MsgSize: 16 * 1024, Window: 2 << 20, SMP: false}
	m.InstallL2(io, true, false, func(env *guest.Env) { w.Run(env) })
	s.run(m)
	m.Shutdown()
	mbps := float64(peer.Received) * 8 / d.Seconds() / 1e6
	return IOResult{Mode: mode, Mbps: mbps, ExitStats: &m.L0.NestedProf}
}

// DiskLatency runs ioping (Figure 7 "Disk randrd/randwr latency"):
// n synchronous 512-byte random accesses.
func (s *Session) DiskLatency(mode hv.Mode, write bool, n int) IOResult {
	m, io := s.netMachine(mode)
	w := &workload.DiskBench{
		N: n, Size: 512, Write: write, Sectors: 1 << 20,
		Rng: sim.NewRand(42), SMP: true,
	}
	m.InstallL2(io, false, true, func(env *guest.Env) { w.Run(env) })
	s.run(m)
	m.Shutdown()
	sum, _ := stats.Summarize(w.Lat)
	return IOResult{Mode: mode, MeanUs: sum.Mean, P50Us: sum.P50, P99Us: sum.P99, ExitStats: &m.L0.NestedProf}
}

// DiskBandwidth runs fio (Figure 7 "Disk randrd/randwr bandwidth"):
// n synchronous 4 KB random accesses, reporting KB/s.
func (s *Session) DiskBandwidth(mode hv.Mode, write bool, n int) IOResult {
	m, io := s.netMachine(mode)
	w := &workload.DiskBench{
		N: n, Size: 4096, Write: write, Sectors: 1 << 20,
		Rng: sim.NewRand(43), SMP: true,
	}
	m.InstallL2(io, false, true, func(env *guest.Env) { w.Run(env) })
	s.run(m)
	m.Shutdown()
	return IOResult{Mode: mode, KBs: w.ThroughputKBs(), ExitStats: &m.L0.NestedProf}
}

// MemcachedResult is one point of Figure 8's load sweep.
type MemcachedResult struct {
	Mode      hv.Mode
	TargetQPS float64
	AvgUs     float64
	P99Us     float64
	Served    uint64
}

// Memcached runs the §6.3.1 experiment: an open-loop ETC load at rate
// QPS against the in-guest memcached server for duration d.
func (s *Session) Memcached(mode hv.Mode, rate float64, d sim.Time) MemcachedResult {
	m, io := s.netMachine(mode)
	srv := workload.DefaultMemcached(d + 100*sim.Millisecond)
	m.InstallL2(io, true, false, func(env *guest.Env) { srv.Run(env) })

	rng := sim.NewRand(7)
	etc := workload.NewETC(sim.SplitRand(rng))
	keyRng := sim.SplitRand(rng)
	client := &netsim.OpenLoopClient{
		Eng: m.Eng, Back: io.LinkIn, Dst: io.NIC,
		Payload: func() []byte {
			return workload.EncodeMemcachedReq(uint64(keyRng.Intn(100000)), etc.IsGet(), etc.ValueSize())
		},
	}
	io.NIC.Peer = client
	client.Start(rate, m.Eng.Now()+d, rng.Float64)
	s.run(m)
	m.Shutdown()
	res := MemcachedResult{Mode: mode, TargetQPS: rate, Served: srv.Served}
	if len(client.Lat) > 0 {
		res.AvgUs = stats.Mean(client.Lat)
		res.P99Us = stats.Percentile(client.Lat, 99)
	}
	return res
}

// TPCC runs the §6.3.2 experiment for duration d, returning ktpm.
func (s *Session) TPCC(mode hv.Mode, d sim.Time) float64 {
	m, io := s.netMachine(mode)
	w := &workload.TPCC{Duration: d, Rng: sim.NewRand(17), SMP: true}
	m.InstallL2(io, false, true, func(env *guest.Env) { w.Run(env) })
	s.run(m)
	m.Shutdown()
	return w.KTpm()
}

// VideoResult is one Figure 10 bar.
type VideoResult struct {
	Mode    hv.Mode
	FPS     int
	Dropped int
	Played  int
}

// Video runs the §6.3.3 experiment at the given frame rate over the full
// five minutes of playback.
func (s *Session) Video(mode hv.Mode, fps int) VideoResult { return s.VideoN(mode, fps, fps*300) }

// VideoN runs the video experiment over a chosen number of frames.
func (s *Session) VideoN(mode hv.Mode, fps, frames int) VideoResult {
	m, io := s.netMachine(mode)
	w := workload.NewVideo(fps, sim.NewRand(23))
	w.Frames = frames
	m.InstallL2(io, false, true, func(env *guest.Env) { w.Run(env) })
	s.run(m)
	m.Shutdown()
	return VideoResult{Mode: mode, FPS: fps, Dropped: w.Dropped, Played: w.Played}
}
