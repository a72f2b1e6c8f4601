package guest

import (
	"fmt"

	"svtsim/internal/isa"
	"svtsim/internal/sim"
	"svtsim/internal/virtio"
)

// NetDriver is the virtio-net front end inside the guest.
type NetDriver struct {
	Env    *Env
	Vector int
	MMIO   uint64 // device window base (queue-notify registers)

	TX, RX *virtio.Queue

	txInflight map[uint16]func()
	txBufs     map[uint16]virtio.Buf
	rxBufs     map[uint16]virtio.Buf
	// OnReceive is the protocol stack's inbound hook.
	OnReceive func(pkt []byte)

	TxSent     uint64
	RxReceived uint64
	// PerPacketCPU models the guest network stack's per-packet cost.
	PerPacketCPU sim.Time
}

// NetConfig sizes the driver's rings and buffers.
type NetConfig struct {
	QueueSize uint16
	RXBuffers int
	BufSize   uint32
}

// DefaultNetConfig matches a small virtio-net-pci device.
func DefaultNetConfig() NetConfig {
	return NetConfig{QueueSize: 256, RXBuffers: 64, BufSize: 2048}
}

// NewNetDriver initializes the queues in guest memory and pre-posts RX
// buffers. layoutBase is guest-physical scratch space for the rings.
func NewNetDriver(e *Env, vector int, mmio uint64, layoutBase uint64, cfg NetConfig) (*NetDriver, error) {
	txL := virtio.NewLayout(layoutBase, cfg.QueueSize)
	rxL := virtio.NewLayout(txL.End()+64, cfg.QueueSize)
	tx, err := virtio.NewQueue(txL, e.Mem, true)
	if err != nil {
		return nil, err
	}
	rx, err := virtio.NewQueue(rxL, e.Mem, true)
	if err != nil {
		return nil, err
	}
	d := &NetDriver{
		Env:          e,
		Vector:       vector,
		MMIO:         mmio,
		TX:           tx,
		RX:           rx,
		txInflight:   make(map[uint16]func()),
		txBufs:       make(map[uint16]virtio.Buf),
		rxBufs:       make(map[uint16]virtio.Buf),
		PerPacketCPU: 900, // ns: skb alloc + stack traversal
	}
	// Device probe: program the queue geometry through trapped MMIO
	// registers (a realistic boot-time exit storm for nested guests).
	exec := func(addr, val uint64) { e.Exec(isa.MMIOWrite(addr, val)) }
	virtio.ConfigureQueue(exec, mmio, virtio.NetQTX, txL)
	virtio.ConfigureQueue(exec, mmio, virtio.NetQRX, rxL)
	for i := 0; i < cfg.RXBuffers; i++ {
		if err := d.postRXBuffer(cfg.BufSize); err != nil {
			return nil, err
		}
	}
	// Publish the pre-posted RX buffers to the device.
	e.Exec(isa.MMIOWrite(mmio+virtio.RegQueueNotify, virtio.NetQRX))
	e.Net = d
	return d, nil
}

func (d *NetDriver) postRXBuffer(size uint32) error {
	gpa := d.Env.Alloc(uint64(size))
	head, err := d.RX.Post([]virtio.Buf{{GPA: gpa, Len: size, DeviceWrite: true}})
	if err != nil {
		return err
	}
	d.rxBufs[head] = virtio.Buf{GPA: gpa, Len: size}
	return nil
}

// Send transmits pkt; done (optional) runs when the TX buffer is
// reclaimed. The kick is a real MMIO write that exits.
func (d *NetDriver) Send(pkt []byte, done func()) error {
	d.Env.Compute(d.PerPacketCPU)
	gpa := d.Env.Alloc(uint64(len(pkt)))
	if err := d.Env.Mem.Write(gpa, pkt); err != nil {
		return err
	}
	head, err := d.TX.Post([]virtio.Buf{{GPA: gpa, Len: uint32(len(pkt))}})
	if err != nil {
		return err
	}
	d.txInflight[head] = done
	d.txBufs[head] = virtio.Buf{GPA: gpa, Len: uint32(len(pkt))}
	d.TxSent++
	// Every send kicks the device. Kick suppression (virtio's EVENT_IDX)
	// would need the full avail-event handshake to avoid lost wakeups; at
	// 10 GbE the wire is slower than the exit path even nested, so the
	// benchmark shapes are unaffected.
	d.Env.Exec(isa.MMIOWrite(d.MMIO+virtio.RegQueueNotify, virtio.NetQTX))
	return nil
}

// OnIRQ is the kernel-side completion handler: retire TX, deliver RX.
// Per the virtio-mmio contract the driver first acknowledges the device
// interrupt — a trapped MMIO write.
func (d *NetDriver) OnIRQ() {
	d.Env.Exec(isa.MMIOWrite(d.MMIO+virtio.RegIntrAck, 1))
	for {
		head, _, ok, err := d.TX.PopUsed()
		if err != nil {
			panic(fmt.Sprintf("guest net: %v", err))
		}
		if !ok {
			break
		}
		if b, ok := d.txBufs[head]; ok {
			d.Env.Free(b.GPA, uint64(b.Len))
			delete(d.txBufs, head)
		}
		if done := d.txInflight[head]; done != nil {
			done()
		}
		delete(d.txInflight, head)
	}
	for {
		head, n, ok, err := d.RX.PopUsed()
		if err != nil {
			panic(fmt.Sprintf("guest net: %v", err))
		}
		if !ok {
			break
		}
		buf := d.rxBufs[head]
		delete(d.rxBufs, head)
		data := make([]byte, n)
		if err := d.Env.Mem.Read(buf.GPA, data); err != nil {
			panic(fmt.Sprintf("guest net: rx copy: %v", err))
		}
		d.RxReceived++
		d.Env.Compute(d.PerPacketCPU)
		// Repost the same buffer for future packets.
		nh, err := d.RX.Post([]virtio.Buf{{GPA: buf.GPA, Len: buf.Len, DeviceWrite: true}})
		if err == nil {
			d.rxBufs[nh] = buf
		}
		if d.OnReceive != nil {
			d.OnReceive(data)
		}
	}
}

// Transport adapts the driver for use as a virtio.Transport — this is the
// vhost path: the guest hypervisor's backend for its nested VM transmits
// through the guest hypervisor's own driver.
type netTransport struct {
	d    *NetDriver
	recv func(pkt []byte)
}

// AsTransport returns the driver as a virtio.Transport.
func (d *NetDriver) AsTransport() virtio.Transport {
	t := &netTransport{d: d}
	prev := d.OnReceive
	d.OnReceive = func(pkt []byte) {
		if t.recv != nil {
			t.recv(pkt)
		}
		if prev != nil {
			prev(pkt)
		}
	}
	return t
}

func (t *netTransport) Send(pkt []byte, done func()) {
	if err := t.d.Send(pkt, done); err != nil {
		panic(fmt.Sprintf("guest net transport: %v", err))
	}
}

func (t *netTransport) SetReceiver(fn func(pkt []byte)) { t.recv = fn }
