package controller

import (
	"repro/internal/bt"
	"repro/internal/btcrypto"
	"repro/internal/hci"
)

// Secure Simple Pairing engine (numeric comparison / Just Works protocol):
// IO capability exchange, P-256 public key exchange, authentication stage
// 1 (commitment, nonces, user confirmation), authentication stage 2
// (DHKey checks), and link key derivation with f2. The association model
// itself is a *host* decision — the controller always raises
// HCI_User_Confirmation_Request and lets the host auto-accept (Just Works)
// or ask the user (numeric comparison), which is exactly the laxity the
// SSP downgrade leg of the page blocking attack exploits.

type sspStage int

const (
	sspWaitHostIOCap sspStage = iota
	sspWaitPeerIOCap
	sspWaitPublicKey
	sspWaitCommit
	sspWaitNonce
	sspWaitConfirm
	sspWaitDHKeyCheck
	sspPasskeyRounds
	sspWaitOOB
)

type sspState struct {
	initiator bool
	fromAuth  bool
	stage     sspStage

	localCap     bt.IOCapability
	peerCap      bt.IOCapability
	localOOB     bool
	peerOOB      bool
	localAuthReq uint8
	peerAuthReq  uint8

	peerPub    []byte
	dhkey      []byte
	localNonce [16]byte
	peerNonce  [16]byte
	peerCommit [16]byte

	localConfirmed bool
	peerCheck      [16]byte
	havePeerCheck  bool
	sentCheck      bool

	// sendR and verifyR are the f3 R inputs: zero for numeric comparison
	// and Just Works, the passkey for passkey entry, and the OOB randoms
	// for out-of-band (where each side sends with the peer's R and
	// verifies with its own).
	sendR   [16]byte
	verifyR [16]byte
	// havePeerNonce marks a stage-1 nonce that arrived while the local
	// side was still waiting on its host (OOB data lookup).
	havePeerNonce bool

	// Passkey entry round state.
	passkey             uint32
	passkeyReady        bool
	round               int
	roundLocalNonce     [16]byte
	roundPeerNonce      [16]byte
	peerRoundCommit     [16]byte
	havePeerRoundCommit bool
	sentRoundCommit     bool
}

func ioCapBytes(cap bt.IOCapability, oob bool, authReq uint8) [3]byte {
	var o byte
	if oob {
		o = 1
	}
	return [3]byte{authReq, o, byte(cap)}
}

// startPairing begins SSP with this controller as the pairing initiator.
// fromAuth marks pairings triggered by HCI_Authentication_Requested, which
// must conclude with an HCI_Authentication_Complete event.
func (c *Controller) startPairing(lk *link, fromAuth bool) {
	if lk.ssp != nil || lk.legacy != nil {
		return
	}
	if !c.sspMode {
		// SSP disabled: fall back to legacy PIN pairing.
		c.startLegacyPairing(lk, fromAuth)
		return
	}
	lk.ssp = &sspState{initiator: true, fromAuth: fromAuth, stage: sspWaitHostIOCap}
	c.tr.SendEvent(&hci.IOCapabilityRequest{Addr: lk.peer})
}

// hostIOCapability handles HCI_IO_Capability_Request_Reply.
func (c *Controller) hostIOCapability(addr bt.BDADDR, cap bt.IOCapability, oob bool, authReq uint8) {
	lk := c.findByAddr(addr)
	if lk == nil || lk.ssp == nil || lk.ssp.stage != sspWaitHostIOCap {
		return
	}
	s := lk.ssp
	s.localCap, s.localOOB, s.localAuthReq = cap, oob, authReq
	if s.initiator {
		s.stage = sspWaitPeerIOCap
		c.send(lk, IOCapReqPDU{Cap: cap, OOB: oob, AuthReq: authReq}, true)
		return
	}
	// Responder: answer the exchange and wait for the initiator's public
	// key.
	s.stage = sspWaitPublicKey
	c.send(lk, IOCapResPDU{Cap: cap, OOB: oob, AuthReq: authReq}, false)
}

// onIOCapReq starts the responder side of SSP.
func (c *Controller) onIOCapReq(lk *link, pdu IOCapReqPDU) {
	if lk.ssp != nil {
		return
	}
	lk.ssp = &sspState{initiator: false, stage: sspWaitHostIOCap}
	lk.ssp.peerCap, lk.ssp.peerOOB, lk.ssp.peerAuthReq = pdu.Cap, pdu.OOB, pdu.AuthReq
	c.tr.SendEvent(&hci.IOCapabilityResponse{Addr: lk.peer, Capability: pdu.Cap, OOBDataPresent: pdu.OOB, AuthRequirements: pdu.AuthReq})
	c.tr.SendEvent(&hci.IOCapabilityRequest{Addr: lk.peer})
}

// onIOCapRes completes the IO capability exchange on the initiator.
func (c *Controller) onIOCapRes(lk *link, pdu IOCapResPDU) {
	s := lk.ssp
	if s == nil || !s.initiator || s.stage != sspWaitPeerIOCap {
		return
	}
	c.stopLMPTimer(lk)
	s.peerCap, s.peerOOB, s.peerAuthReq = pdu.Cap, pdu.OOB, pdu.AuthReq
	c.tr.SendEvent(&hci.IOCapabilityResponse{Addr: lk.peer, Capability: pdu.Cap, OOBDataPresent: pdu.OOB, AuthRequirements: pdu.AuthReq})
	s.stage = sspWaitPublicKey
	c.send(lk, PublicKeyPDU{Pub: c.kp.PublicBytes()}, true)
}

// onPublicKey handles the peer's P-256 public key.
func (c *Controller) onPublicKey(lk *link, pdu PublicKeyPDU) {
	s := lk.ssp
	if s == nil || s.stage != sspWaitPublicKey || s.peerPub != nil {
		return
	}
	s.peerPub = append([]byte(nil), pdu.Pub...)
	dh, err := c.med.DHMemo().DHKey(c.kp, s.peerPub)
	if err != nil {
		c.sspFail(lk, hci.StatusAuthenticationFailure, true)
		return
	}
	s.dhkey = dh
	if s.initiator {
		c.stopLMPTimer(lk)
		switch s.model() {
		case bt.PasskeyEntry:
			c.passkeyBegin(lk)
			return
		case bt.OutOfBand:
			c.oobBegin(lk)
			return
		}
		// Wait for the responder's commitment.
		s.stage = sspWaitCommit
		c.armLMPTimer(lk)
		return
	}
	// Responder: send own public key, then run stage 1 for the selected
	// association model.
	c.send(lk, PublicKeyPDU{Pub: c.kp.PublicBytes()}, false)
	switch s.model() {
	case bt.PasskeyEntry:
		c.passkeyBegin(lk)
		return
	case bt.OutOfBand:
		c.oobBegin(lk)
		return
	}
	s.localNonce = c.rand16()
	commit := btcrypto.F1(c.kp.PublicX(), peerX(s.peerPub), s.localNonce, 0)
	s.stage = sspWaitNonce
	c.send(lk, SSPConfirmPDU{C: commit}, true)
}

// peerX extracts the X coordinate from an uncompressed P-256 point.
func peerX(pub []byte) [32]byte {
	var x [32]byte
	if len(pub) == 65 {
		copy(x[:], pub[1:33])
	}
	return x
}

// onSSPConfirm receives the responder's commitment on the initiator.
func (c *Controller) onSSPConfirm(lk *link, pdu SSPConfirmPDU) {
	s := lk.ssp
	if s == nil || !s.initiator || s.stage != sspWaitCommit {
		return
	}
	c.stopLMPTimer(lk)
	s.peerCommit = pdu.C
	s.localNonce = c.rand16()
	s.stage = sspWaitNonce
	c.send(lk, SSPNoncePDU{N: s.localNonce}, true)
}

// onSSPNonce advances authentication stage 1.
func (c *Controller) onSSPNonce(lk *link, pdu SSPNoncePDU) {
	s := lk.ssp
	if s == nil {
		return
	}
	if s.stage == sspWaitOOB {
		// The peer finished its OOB lookup first; stash its nonce until
		// our own host answers.
		s.peerNonce = pdu.N
		s.havePeerNonce = true
		return
	}
	if s.stage != sspWaitNonce {
		return
	}
	c.stopLMPTimer(lk)
	s.peerNonce = pdu.N
	s.havePeerNonce = true
	if s.model() == bt.OutOfBand {
		// OOB: no commitments over nonces, no user confirmation; the
		// responder echoes its nonce and both proceed to stage 2.
		if !s.initiator {
			c.send(lk, SSPNoncePDU{N: s.localNonce}, false)
		}
		s.stage = sspWaitConfirm
		c.advanceStage2(lk)
		return
	}
	if s.initiator {
		// Verify the responder's commitment Cb = f1(PKbx, PKax, Nb, 0).
		expect := btcrypto.F1(peerX(s.peerPub), c.kp.PublicX(), s.peerNonce, 0)
		if expect != s.peerCommit {
			c.sspFail(lk, hci.StatusAuthenticationFailure, true)
			return
		}
	} else {
		// Responder returns its nonce once the initiator's arrived.
		c.send(lk, SSPNoncePDU{N: s.localNonce}, false)
	}
	s.stage = sspWaitConfirm
	c.raiseConfirmation(lk)
}

// raiseConfirmation computes the numeric verification value and asks the
// host for (possibly automatic) confirmation.
func (c *Controller) raiseConfirmation(lk *link) {
	s := lk.ssp
	var g uint32
	if s.initiator {
		g = btcrypto.G(c.kp.PublicX(), peerX(s.peerPub), s.localNonce, s.peerNonce)
	} else {
		g = btcrypto.G(peerX(s.peerPub), c.kp.PublicX(), s.peerNonce, s.localNonce)
	}
	c.tr.SendEvent(&hci.UserConfirmationRequest{Addr: lk.peer, NumericValue: btcrypto.SixDigits(g)})
}

// hostConfirmation handles the host's user-confirmation verdict.
func (c *Controller) hostConfirmation(addr bt.BDADDR, accept bool) {
	lk := c.findByAddr(addr)
	if lk == nil || lk.ssp == nil || lk.ssp.stage != sspWaitConfirm && lk.ssp.stage != sspWaitDHKeyCheck {
		return
	}
	if !accept {
		c.sspFail(lk, hci.StatusAuthenticationFailure, true)
		return
	}
	lk.ssp.localConfirmed = true
	c.advanceStage2(lk)
}

// onDHKeyCheck receives the peer's f3 check value.
func (c *Controller) onDHKeyCheck(lk *link, pdu DHKeyCheckPDU) {
	s := lk.ssp
	if s == nil {
		return
	}
	s.peerCheck = pdu.E
	s.havePeerCheck = true
	if s.initiator {
		if s.stage != sspWaitDHKeyCheck {
			return
		}
		c.stopLMPTimer(lk)
		expect := btcrypto.F3(s.dhkey, s.peerNonce, s.localNonce, s.verifyR,
			ioCapBytes(s.peerCap, s.peerOOB, s.peerAuthReq), addr6(lk.peer), addr6(c.cfg.Addr))
		if expect != s.peerCheck {
			c.sspFail(lk, hci.StatusAuthenticationFailure, true)
			return
		}
		c.sspSucceed(lk)
		return
	}
	c.advanceStage2(lk)
}

// advanceStage2 sends this side's DHKey check once its preconditions hold:
// the initiator sends Ea after local confirmation; the responder verifies
// Ea and answers Eb once both the local confirmation and Ea are in.
func (c *Controller) advanceStage2(lk *link) {
	s := lk.ssp
	if s == nil || s.sentCheck || !s.localConfirmed {
		return
	}
	if s.initiator {
		if !s.havePeerNonce {
			return // OOB: our host answered before the peer's nonce arrived
		}
		ea := btcrypto.F3(s.dhkey, s.localNonce, s.peerNonce, s.sendR,
			ioCapBytes(s.localCap, s.localOOB, s.localAuthReq), addr6(c.cfg.Addr), addr6(lk.peer))
		s.sentCheck = true
		s.stage = sspWaitDHKeyCheck
		c.send(lk, DHKeyCheckPDU{E: ea}, true)
		return
	}
	if !s.havePeerCheck {
		return
	}
	expect := btcrypto.F3(s.dhkey, s.peerNonce, s.localNonce, s.verifyR,
		ioCapBytes(s.peerCap, s.peerOOB, s.peerAuthReq), addr6(lk.peer), addr6(c.cfg.Addr))
	if expect != s.peerCheck {
		c.sspFail(lk, hci.StatusAuthenticationFailure, true)
		return
	}
	eb := btcrypto.F3(s.dhkey, s.localNonce, s.peerNonce, s.sendR,
		ioCapBytes(s.localCap, s.localOOB, s.localAuthReq), addr6(c.cfg.Addr), addr6(lk.peer))
	s.sentCheck = true
	c.send(lk, DHKeyCheckPDU{E: eb}, false)
	c.sspSucceed(lk)
}

func addr6(a bt.BDADDR) [6]byte { return [6]byte(a) }

// sspSucceed derives the link key, notifies the host, and — when pairing
// was triggered by HCI_Authentication_Requested — runs the concluding LMP
// authentication with the fresh key.
func (c *Controller) sspSucceed(lk *link) {
	s := lk.ssp
	lk.ssp = nil

	var key [16]byte
	if s.initiator {
		key = btcrypto.F2(s.dhkey, s.localNonce, s.peerNonce, addr6(c.cfg.Addr), addr6(lk.peer))
	} else {
		key = btcrypto.F2(s.dhkey, s.peerNonce, s.localNonce, addr6(lk.peer), addr6(c.cfg.Addr))
	}
	lk.currentKey = bt.LinkKey(key)
	lk.haveKey = true

	keyType := bt.KeyTypeUnauthenticatedP256
	if s.mapping().Authenticated || s.model() == bt.OutOfBand {
		// OOB authenticates the key exchange through the out-of-band
		// channel regardless of IO capabilities.
		keyType = bt.KeyTypeAuthenticatedP256
	}
	c.tr.SendEvent(&hci.SimplePairingComplete{Status: hci.StatusSuccess, Addr: lk.peer})
	c.tr.SendEvent(&hci.LinkKeyNotification{Addr: lk.peer, Key: lk.currentKey, KeyType: keyType})

	if s.initiator && s.fromAuth {
		lk.auth = &authState{verifier: true, stage: authVerifierWaitSres, key: lk.currentKey, fromPairing: true, challenge: c.rand16()}
		c.send(lk, AuRandPDU{Rand: lk.auth.challenge}, true)
	}
}

// sspFail aborts pairing, optionally informing the peer.
func (c *Controller) sspFail(lk *link, reason hci.Status, tellPeer bool) {
	s := lk.ssp
	if s == nil {
		return
	}
	lk.ssp = nil
	c.stopLMPTimer(lk)
	if tellPeer {
		c.send(lk, NotAcceptedPDU{Op: "SSP", Reason: reason}, false)
	}
	c.tr.SendEvent(&hci.SimplePairingComplete{Status: reason, Addr: lk.peer})
	if s.fromAuth && s.initiator {
		c.tr.SendEvent(&hci.AuthenticationComplete{Status: reason, Handle: lk.handle})
	}
}
