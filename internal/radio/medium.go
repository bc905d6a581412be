// Package radio simulates the shared 2.4 GHz medium of Bluetooth BR/EDR at
// the abstraction level the BLAP attacks need: inquiry broadcast and
// response, paging with per-responder jitter (including the race between
// multiple radios scanning with the same BDADDR, which the page blocking
// attack defeats), and point-to-point physical links carrying LMP and ACL
// traffic.
package radio

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/bt"
	"repro/internal/btcrypto"
	"repro/internal/sim"
)

// Config tunes medium timing. The zero value is not useful; use
// DefaultConfig.
type Config struct {
	// PropagationDelay is the one-way frame flight time.
	PropagationDelay time.Duration
	// ResponseJitterMin/Max bound the uniform random delay before a
	// scanning device answers an inquiry or page. The page-response race
	// between an attacker and the genuine accessory — the source of the
	// paper's 42-60% baseline MITM success rate — is decided by this
	// jitter.
	ResponseJitterMin time.Duration
	ResponseJitterMax time.Duration
	// PageTimeout is how long a pager waits for any response.
	PageTimeout time.Duration
	// PageRetrainInterval is how soon the pager's repeating page train
	// reaches the scanner again after a train (or its response) was lost
	// on the air. Real paging repeats trains for the whole page-timeout
	// window, so a lossy channel delays — rather than kills — the page.
	// Only consulted when a fault model is installed: on a clean channel
	// the first train always lands.
	PageRetrainInterval time.Duration
	// InquiryUnit is the duration of one inquiry-length unit (1.28 s).
	InquiryUnit time.Duration
}

// DefaultConfig returns the timing used by the paper-reproduction
// experiments.
func DefaultConfig() Config {
	return Config{
		PropagationDelay:    100 * time.Microsecond,
		ResponseJitterMin:   10 * time.Millisecond,
		ResponseJitterMax:   40 * time.Millisecond,
		PageTimeout:         5120 * time.Millisecond,
		PageRetrainInterval: 640 * time.Millisecond,
		InquiryUnit:         1280 * time.Millisecond,
	}
}

// DeviceInfo is the identity a radio advertises in inquiry responses and
// page handshakes.
type DeviceInfo struct {
	Addr bt.BDADDR
	COD  bt.ClassOfDevice
	Name string
}

// Receiver is the controller-side interface a Port delivers to.
type Receiver interface {
	// Info returns the current advertised identity. Called at response
	// time so BDADDR spoofing takes effect immediately.
	Info() DeviceInfo
	// InquiryScanEnabled reports discoverability.
	InquiryScanEnabled() bool
	// PageScanEnabled reports connectability.
	PageScanEnabled() bool
	// AcceptPage decides whether an incoming page from the given identity
	// may proceed to a baseband link.
	AcceptPage(from DeviceInfo) bool
	// LinkEstablished notifies the receiver of a new physical link. The
	// initiator reports via the Page callback instead, so this fires only
	// on the responder side.
	LinkEstablished(l *Link, peer DeviceInfo)
	// LinkData delivers a frame from the peer.
	LinkData(l *Link, payload any)
	// LinkClosed notifies that the peer (or the medium) tore the link down.
	LinkClosed(l *Link, reason error)
}

// FrameVerdict is a fault model's decision for one transmitted frame.
// The zero value delivers the frame normally.
type FrameVerdict struct {
	// Drop loses the frame outright (collision, fade).
	Drop bool
	// Corrupt flips payload bits in flight; the receiving baseband's CRC
	// check fails and the frame is discarded. Indistinguishable from Drop
	// at the LMP layer, but counted separately by injectors.
	Corrupt bool
	// Duplicate delivers the frame a second time one propagation delay
	// after the first copy.
	Duplicate bool
	// Delay holds the frame back by this much extra flight time, letting
	// later frames overtake it (bounded reordering).
	Delay time.Duration
}

// Lost reports whether the frame never reaches the peer's LMP layer.
func (v FrameVerdict) Lost() bool { return v.Drop || v.Corrupt }

// FaultModel decides the fate of each frame on the medium. Implementations
// must be deterministic given the scheduler's RNG (see internal/faults);
// Frame is called once per transmission attempt, in scheduling order.
type FaultModel interface {
	Frame() FrameVerdict
}

// SetFaultModel installs a fault model consulted for every link frame,
// page frame, and inquiry response. A nil model (the default) is a perfect
// channel and costs nothing — no RNG draws, no extra events — so runs
// without faults are bit-identical to builds before fault injection
// existed.
func (m *Medium) SetFaultModel(fm FaultModel) { m.faults = fm }

// lost consults the fault model for frames where only loss matters
// (page and inquiry handshakes, where duplication and reordering have no
// observable effect at this abstraction level).
func (m *Medium) lost() bool {
	if m.faults == nil {
		return false
	}
	return m.faults.Frame().Lost()
}

// SniffedFrame is one over-the-air frame as seen by a passive sniffer:
// source and destination identity plus the payload (an LMP PDU or
// encrypted ACL frame). Air sniffers see everything the baseband carries —
// which is why an extracted link key breaks past traffic too (§IV).
type SniffedFrame struct {
	At      time.Duration
	From    bt.BDADDR
	To      bt.BDADDR
	Payload any
}

// Medium is the shared radio environment. All methods must be called from
// scheduler context (the simulation is single-threaded).
type Medium struct {
	sched    *sim.Scheduler
	cfg      Config
	ports    []*Port
	sniffers []func(SniffedFrame)
	faults   FaultModel
	pages    []*pageOp
	dh       btcrypto.DHMemo
}

// DHMemo returns the world's ECDH memo. The medium is the one object
// every controller of a simulated world shares, and it dies with that
// world, so the memo is scoped to exactly one world (see
// btcrypto.DHMemo).
func (m *Medium) DHMemo() *btcrypto.DHMemo { return &m.dh }

// Sniff registers a passive air sniffer observing every link frame at
// transmission time.
func (m *Medium) Sniff(fn func(SniffedFrame)) {
	m.sniffers = append(m.sniffers, fn)
}

// NewMedium creates an empty medium.
func NewMedium(s *sim.Scheduler, cfg Config) *Medium {
	if cfg.ResponseJitterMax < cfg.ResponseJitterMin {
		cfg.ResponseJitterMax = cfg.ResponseJitterMin
	}
	if cfg.PageRetrainInterval <= 0 {
		// A zero interval would respin lost trains at the same virtual
		// instant forever; fall back to the default cadence.
		cfg.PageRetrainInterval = 640 * time.Millisecond
	}
	return &Medium{sched: s, cfg: cfg}
}

// Config returns the medium timing configuration.
func (m *Medium) Config() Config { return m.cfg }

// Attach registers a receiver and returns its Port.
func (m *Medium) Attach(r Receiver) *Port {
	p := &Port{medium: m, recv: r}
	m.ports = append(m.ports, p)
	return p
}

// Detach removes a port from the medium, modelling the radio going dark
// (powered off, out of range, or an injected outage). Its links are closed
// with ErrPortDetached — on both sides: the peer observes LinkClosed with
// the outage reason, and the detaching receiver itself is notified so its
// controller can report the dead connections to its host. Any page the
// port initiated fails immediately with ErrPortDetached instead of
// lingering until the page timeout. Each callback fires exactly once.
func (m *Medium) Detach(p *Port) {
	for i, q := range m.ports {
		if q == p {
			m.ports = append(m.ports[:i], m.ports[i+1:]...)
			break
		}
	}
	for _, l := range append([]*Link(nil), p.links...) {
		l.close(p, ErrPortDetached)
		p.recv.LinkClosed(l, ErrPortDetached)
	}
	for _, op := range append([]*pageOp(nil), m.pages...) {
		if op.from == p {
			m.finishPage(op, nil, DeviceInfo{}, ErrPortDetached)
		}
	}
}

// Reattach restores a previously detached port to the medium, modelling
// the radio coming back after an outage. Links do not survive the outage;
// the port simply becomes reachable again. Reattaching an attached port
// is a no-op.
func (m *Medium) Reattach(p *Port) {
	if p.medium != m {
		panic("radio: Reattach of a port from another medium")
	}
	if p.attached() {
		return
	}
	m.ports = append(m.ports, p)
}

// Port is one radio attached to the medium.
type Port struct {
	medium *Medium
	recv   Receiver
	links  []*Link
}

// Info exposes the receiver's current identity.
func (p *Port) Info() DeviceInfo { return p.recv.Info() }

// Medium errors.
var (
	ErrPageTimeout  = errors.New("radio: page timeout")
	ErrLinkClosed   = errors.New("radio: link closed")
	ErrPortDetached = errors.New("radio: port detached")
)

// InquiryResult is one discovered device.
type InquiryResult struct {
	Info        DeviceInfo
	ClockOffset uint16
}

// StartInquiry broadcasts an inquiry for the given duration. Each
// discoverable port (other than the inquirer) responds after jitter via
// onResult; onDone fires when the inquiry window closes. Responses landing
// after the window are discarded.
func (m *Medium) StartInquiry(from *Port, duration time.Duration, onResult func(InquiryResult), onDone func()) {
	deadline := m.sched.Now() + duration
	for _, p := range m.ports {
		if p == from {
			continue
		}
		p := p
		delay := m.cfg.PropagationDelay + m.sched.JitterRange(m.cfg.ResponseJitterMin, m.cfg.ResponseJitterMax)
		m.sched.Schedule(delay, func() {
			if !p.attached() || !p.recv.InquiryScanEnabled() {
				return
			}
			if m.sched.Now()+m.cfg.PropagationDelay > deadline {
				return
			}
			if m.lost() { // inquiry response lost on the air
				return
			}
			res := InquiryResult{Info: p.recv.Info(), ClockOffset: uint16(m.sched.Rand().Intn(0x8000))}
			m.sched.Schedule(m.cfg.PropagationDelay, func() { onResult(res) })
		})
	}
	m.sched.Schedule(duration, onDone)
}

func (p *Port) attached() bool {
	for _, q := range p.medium.ports {
		if q == p {
			return true
		}
	}
	return false
}

// Page initiates connection establishment toward target. Every port whose
// *current* BDADDR equals target, is page-scanning, and accepts the page
// responds after independent jitter; the first response wins and a Link is
// created between pager and winner. Losing responders are never notified —
// exactly like a real page, where the responder only learns it "won" when
// the FHS/poll exchange continues. cb receives the established link or
// ErrPageTimeout.
func (m *Medium) Page(from *Port, target bt.BDADDR, cb func(*Link, DeviceInfo, error)) {
	op := &pageOp{from: from, cb: cb}
	m.pages = append(m.pages, op)
	op.timeout = m.sched.Schedule(m.cfg.PageTimeout, func() {
		m.finishPage(op, nil, DeviceInfo{}, ErrPageTimeout)
	})

	fromInfo := from.recv.Info()
	for _, p := range m.ports {
		if p == from {
			continue
		}
		p := p
		arrival := m.cfg.PropagationDelay
		var train func()
		train = func() {
			if op.done || !p.attached() {
				return
			}
			if !p.recv.PageScanEnabled() || p.recv.Info().Addr != target {
				return
			}
			if !p.recv.AcceptPage(fromInfo) {
				return
			}
			if m.lost() { // this train lost on the air; the next one repeats
				m.sched.Schedule(m.cfg.PageRetrainInterval, train)
				return
			}
			respDelay := m.sched.JitterRange(m.cfg.ResponseJitterMin, m.cfg.ResponseJitterMax) + m.cfg.PropagationDelay
			m.sched.Schedule(respDelay, func() {
				if op.done || !p.attached() || !from.attached() {
					return
				}
				if m.lost() { // response lost; the page train keeps repeating
					m.sched.Schedule(m.cfg.PageRetrainInterval, train)
					return
				}
				// First response to arrive establishes the link; later
				// responders for transaction txn are silently dropped.
				l := m.link(from, p)
				peerInfo := p.recv.Info()
				p.recv.LinkEstablished(l, fromInfo)
				m.finishPage(op, l, peerInfo, nil)
			})
		}
		m.sched.Schedule(arrival, train)
	}
}

// pageOp tracks one in-flight page so it resolves exactly once: by the
// winning response, by the page timeout, or by the pager detaching.
type pageOp struct {
	from    *Port
	done    bool
	timeout *sim.Event
	cb      func(*Link, DeviceInfo, error)
}

// finishPage resolves a page operation, untracking it and cancelling its
// timeout. Calls after the first are no-ops.
func (m *Medium) finishPage(op *pageOp, l *Link, peer DeviceInfo, err error) {
	if op.done {
		return
	}
	op.done = true
	m.sched.Cancel(op.timeout)
	for i, q := range m.pages {
		if q == op {
			m.pages = append(m.pages[:i], m.pages[i+1:]...)
			break
		}
	}
	op.cb(l, peer, err)
}

func (m *Medium) link(a, b *Port) *Link {
	l := &Link{medium: m, a: a, b: b}
	a.links = append(a.links, l)
	b.links = append(b.links, l)
	return l
}

// Link is an established point-to-point baseband connection.
type Link struct {
	medium *Medium
	a, b   *Port
	closed bool
}

// Peer returns the port on the other end from p.
func (l *Link) Peer(p *Port) *Port {
	if p == l.a {
		return l.b
	}
	return l.a
}

// Closed reports whether the link has been torn down.
func (l *Link) Closed() bool { return l.closed }

// Send delivers payload to the peer of from after the propagation delay,
// subject to the medium's fault model: a frame may be dropped, corrupted
// (CRC fail at the receiver — equivalent to a drop), duplicated, or
// delayed past later frames. Sniffers observe the transmission itself, so
// a dropped frame is still on the air (loss happens at the receiver).
// Frames in flight when the link closes are dropped.
func (l *Link) Send(from *Port, payload any) {
	if l.closed {
		return
	}
	peer := l.Peer(from)
	for _, sniff := range l.medium.sniffers {
		sniff(SniffedFrame{
			At:      l.medium.sched.Now(),
			From:    from.recv.Info().Addr,
			To:      peer.recv.Info().Addr,
			Payload: payload,
		})
	}
	delay := l.medium.cfg.PropagationDelay
	duplicate := false
	if fm := l.medium.faults; fm != nil {
		v := fm.Frame()
		if v.Lost() {
			return
		}
		delay += v.Delay
		duplicate = v.Duplicate
	}
	deliver := func() {
		if l.closed || !peer.attached() {
			return
		}
		peer.recv.LinkData(l, payload)
	}
	l.medium.sched.Schedule(delay, deliver)
	if duplicate {
		l.medium.sched.Schedule(delay+l.medium.cfg.PropagationDelay, deliver)
	}
}

// Close tears the link down; the peer observes LinkClosed with reason.
func (l *Link) Close(from *Port, reason error) { l.close(from, reason) }

func (l *Link) close(from *Port, reason error) {
	if l.closed {
		return
	}
	l.closed = true
	if reason == nil {
		reason = ErrLinkClosed
	}
	l.a.dropLink(l)
	l.b.dropLink(l)
	peer := l.Peer(from)
	l.medium.sched.Schedule(l.medium.cfg.PropagationDelay, func() {
		if peer.attached() {
			peer.recv.LinkClosed(l, reason)
		}
	})
}

func (p *Port) dropLink(l *Link) {
	for i, q := range p.links {
		if q == l {
			p.links = append(p.links[:i], p.links[i+1:]...)
			return
		}
	}
}

// String describes the link endpoints for diagnostics.
func (l *Link) String() string {
	return fmt.Sprintf("link(%s <-> %s)", l.a.recv.Info().Addr, l.b.recv.Info().Addr)
}
