package hv

import (
	"svtsim/internal/isa"
	"svtsim/internal/obs"
	"svtsim/internal/sim"
)

// SetObs attaches (or detaches, with nil) the observability tracer, the
// hypervisor's only exit recorder. Exit spans land on the track of the
// exiting vCPU's hardware context.
func (h *Hypervisor) SetObs(t *obs.Tracer) { h.obs = t }

// traceExit records vc's handled exit e as a span of the given kind
// from start to now.
func (h *Hypervisor) traceExit(vc *VCPU, kind obs.Kind, e isa.Exit, start sim.Time) {
	if h.obs == nil {
		return
	}
	if vc.obsLabel == 0 {
		vc.obsLabel = h.obs.Intern(vc.Name)
	}
	h.obs.Span(int(vc.Ctx), kind, uint8(vc.Lvl), vc.obsLabel,
		start, h.P.Now(), uint64(e.Reason), e.Qualification)
}
