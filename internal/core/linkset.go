package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/edgeai/fedml/internal/codec"
	"github.com/edgeai/fedml/internal/obs"
	"github.com/edgeai/fedml/internal/tensor"
	"github.com/edgeai/fedml/internal/transport"
)

// This file is the link layer of the platform: everything that touches a
// node-facing transport.Link — broadcast, probe, gather, codec chains,
// suspect/rejoin bookkeeping — and the traffic billing that goes with it.
// The flat platform and the leaf shard aggregator both drive their node
// fleets through one linkSet (via flatSource), so the counter/event parity
// invariant (every CommStats mutation mirrored as exactly one obs.Event, see
// billDown/billUp/markSuspect/rejoin/reject) holds for both by construction.

// linkOps abstracts per-node I/O so the strict synchronous path and the
// fault-tolerant (deadline-bounded) path share the round loop.
type linkOps interface {
	// send transmits with the full round deadline (strict: blocking).
	send(i int, m transport.Msg) error
	// trySend transmits with an explicit deadline (strict: blocking).
	trySend(i int, m transport.Msg, d time.Duration) error
	// recv waits for a message with an explicit deadline (strict: blocking).
	recv(i int, d time.Duration) (transport.Msg, error)
	// finish releases any resources the ops layer created.
	finish()
}

// syncOps is the strict path: direct blocking I/O on the caller's links.
type syncOps struct{ links []transport.Link }

var _ linkOps = syncOps{}

func (s syncOps) send(i int, m transport.Msg) error { return s.links[i].Send(m) }
func (s syncOps) trySend(i int, m transport.Msg, _ time.Duration) error {
	return s.links[i].Send(m)
}
func (s syncOps) recv(i int, _ time.Duration) (transport.Msg, error) { return s.links[i].Recv() }
func (syncOps) finish()                                              {}

// asyncOps is the fault-tolerant path: every link gets goroutine pumps and
// every operation a deadline, so dead or slow nodes cannot stall a round.
// Links of dropped nodes stay open so the platform can re-probe and re-admit
// nodes that come back; everything is closed by finish.
type asyncOps struct {
	wrapped []*transport.Async
	timeout time.Duration
}

var _ linkOps = (*asyncOps)(nil)

func (a *asyncOps) send(i int, m transport.Msg) error {
	return a.wrapped[i].TrySend(m, a.timeout)
}

func (a *asyncOps) trySend(i int, m transport.Msg, d time.Duration) error {
	return a.wrapped[i].TrySend(m, d)
}

func (a *asyncOps) recv(i int, d time.Duration) (transport.Msg, error) {
	return a.wrapped[i].TryRecv(d)
}

func (a *asyncOps) finish() {
	for _, w := range a.wrapped {
		_ = w.Close()
	}
}

// linkSet owns the node-facing links of one aggregator (the whole federation
// for the flat platform, one contiguous shard for a leaf aggregator) and all
// per-link state: liveness, NodeID bindings, codec reference chains, and the
// traffic/fault accounting.
type linkSet struct {
	c       Config // normalized
	ops     linkOps
	ft      bool
	probeTO time.Duration
	logf    func(format string, args ...any)

	// base is the global node index of local link 0. Every reported index —
	// obs events, log lines, error strings — is base+i, so per-shard streams
	// stay distinguishable when merged. The flat platform uses base 0.
	base int

	alive    []bool
	aliveCnt int
	// expectID pins each link to the NodeID its first valid update claimed
	// (-1 until bound); boundBy is the reverse map. Together they reject
	// misrouted or duplicated updates that would otherwise aggregate
	// silently under the wrong weight.
	expectID []int
	boundBy  map[int]int

	stats CommStats
	// obs, when non-nil, mirrors every stats mutation as a structured
	// event (counter/event parity: the billing helpers below are the only
	// places either side changes).
	obs obs.RoundObserver

	// codecSpec/down/up hold the payload-path state when Config.Codec
	// selects a non-raw codec or a SyncMask is configured: one downlink
	// encoder and one uplink decoder per link (wrapped in codec.Masked so
	// structural masking composes with any inner compression), so stateful
	// codecs keep an independent reference chain per node. All three stay
	// nil/empty for raw unmasked runs, preserving the allocation-free Params
	// hot path.
	codecSpec string
	down      []*codec.Masked
	up        []*codec.Masked

	// Sync-mask state, nil/empty unless c.SyncMask is set. maskReady[i]
	// records that link i has been sent a full payload this process
	// lifetime, the precondition for masked traffic (a resumed platform or
	// an escalated resync starts false). probeFails[i] counts consecutive
	// failed re-probes; at probeEscalation it clears maskReady so the next
	// probe carries a full payload — the recovery path for a node that lost
	// its scatter reference entirely. lastMasked[i] tracks the downlink's
	// last payload shape for TypeMaskSync transition events.
	maskReady  []bool
	probeFails []int
	lastMasked []bool
}

// probeEscalation is the number of consecutive failed re-probes after which
// a masked run stops offering masked resyncs (inner chain restarts over the
// masked set — sufficient when the node kept its state through a transient
// fault) and sends one full unmasked payload instead (necessary when the
// node restarted and holds no reference to scatter into).
const probeEscalation = 2

// newLinkSet builds the link layer over node links whose global indices
// start at base. c must already be normalized and validated. The caller must
// ls.finish() when the run ends.
func newLinkSet(c Config, links []transport.Link, base int) *linkSet {
	ft := c.RoundTimeout > 0
	var ops linkOps = syncOps{links: links}
	if ft {
		wrapped := make([]*transport.Async, len(links))
		for i, l := range links {
			wrapped[i] = transport.NewAsync(l, 2)
		}
		ops = &asyncOps{wrapped: wrapped, timeout: c.RoundTimeout}
	}
	ls := &linkSet{
		c:        c,
		ops:      ops,
		ft:       ft,
		probeTO:  resolveProbeTimeout(c),
		logf:     c.logger(),
		base:     base,
		alive:    make([]bool, len(links)),
		aliveCnt: len(links),
		expectID: make([]int, len(links)),
		boundBy:  make(map[int]int, len(links)),
		obs:      c.Observer,
	}
	for i := range ls.alive {
		ls.alive[i] = true
		ls.expectID[i] = -1
	}
	if (c.Codec != "" && c.Codec != codec.Raw) || c.SyncMask != nil {
		// One encoder/decoder pair per link: stateful codecs track each
		// node's reference chain independently. Validate caught bad specs.
		// Mask-only runs (no compression configured) still need the payload
		// path for the masked wire format, so they ride on the raw codec.
		spec := c.Codec
		if spec == "" {
			spec = codec.Raw
		}
		ls.codecSpec = spec
		ls.down = make([]*codec.Masked, len(links))
		ls.up = make([]*codec.Masked, len(links))
		for i := range links {
			di, _ := codec.New(spec)
			ui, _ := codec.New(spec)
			ls.down[i] = codec.NewMasked(di)
			ls.up[i] = codec.NewMasked(ui)
		}
	}
	if c.SyncMask != nil {
		ls.maskReady = make([]bool, len(links))
		ls.probeFails = make([]int, len(links))
		ls.lastMasked = make([]bool, len(links))
	}
	return ls
}

// roundMask is the wire mask for round's parameter traffic: nil until the
// warmup ends or when no sync-mask policy is configured.
func (ls *linkSet) roundMask(round int) []codec.Range {
	return ls.c.SyncMask.maskFor(round)
}

// finish releases the I/O resources (async pumps in fault-tolerant mode).
func (ls *linkSet) finish() { ls.ops.finish() }

// wireBytes is the billed size of a parameter-bearing message: the encoded
// payload when one is attached, 8 bytes per raw parameter otherwise.
func wireBytes(m transport.Msg) int64 {
	if len(m.Payload) > 0 {
		return int64(len(m.Payload))
	}
	return int64(8 * len(m.Params))
}

// paramsMsg builds the KindParams message carrying theta to link i.
// Raw runs ship a clone of theta (ownership transfers on Send); payload runs
// encode through link i's downlink encoder. resync restarts the link's
// reference chains first, so the message is guaranteed to be a payload any
// decoder state can accept — the recovery offer sent with every probe. Under
// a sync mask that resync is itself masked (an inner full sync of the masked
// set only); the escalation to a full unmasked payload is driven by
// maskReady, cleared after probeEscalation consecutive failed probes.
func (ls *linkSet) paramsMsg(theta tensor.Vec, i, round, t0 int, resync bool) (transport.Msg, error) {
	m := transport.Msg{Kind: transport.KindParams, Round: round, LocalSteps: t0}
	if ls.down == nil {
		m.Params = theta.Clone()
		return m, nil
	}
	if resync {
		ls.resyncLink(i)
	}
	mask := ls.roundMask(round)
	if mask != nil && !ls.maskReady[i] {
		// First payload on this link (fresh start, resumed platform, or an
		// escalated resync): only a full payload can establish the scatter
		// reference a masked payload needs.
		mask = nil
	}
	payload, err := ls.down[i].EncodeMasked(theta, mask)
	if err != nil {
		return transport.Msg{}, fmt.Errorf("core: encode broadcast for node %d: %w", ls.base+i, err)
	}
	if ls.maskReady != nil {
		if mask == nil {
			ls.maskReady[i] = true
		}
		if masked := mask != nil; masked != ls.lastMasked[i] {
			ls.lastMasked[i] = masked
			if ls.obs != nil {
				cause := "full"
				if masked {
					cause = "masked"
				}
				ls.obs.Observe(obs.Event{Type: obs.TypeMaskSync, Round: round, Node: ls.base + i, Value: float64(codec.MaskLen(mask)), Cause: cause})
			}
		}
	}
	m.Codec = ls.codecSpec
	m.Payload = payload
	return m, nil
}

// resyncLink drops link i's codec reference chains, forcing the next
// downlink message to be a full payload and priming the uplink decoder to
// accept the full reply it triggers. No-op for raw runs.
func (ls *linkSet) resyncLink(i int) {
	if ls.down == nil {
		return
	}
	ls.down[i].Reset()
	ls.up[i].Reset()
}

// decodeUp expands the compressed update carried by msg through link i's
// uplink decoder, filling msg.Params in place. Every failure wraps
// errDecode so the round loop can tell wire damage from protocol abuse.
//
// theta is the platform's current global vector: masked payloads scatter
// into it, so the frozen coordinates of the decoded update are θ's
// bit-exactly. A full (unmasked) reply arriving while the mask is active —
// recovery traffic after an escalated resync, or a warmup-era straggler on
// the async path — is projected onto the mask for the same reason: under an
// active mask the accepted vector is always θ outside the mask and the
// node's values inside it, so frozen coordinates cannot drift no matter
// which payload shape delivered them.
func (ls *linkSet) decodeUp(i, round int, msg *transport.Msg, theta tensor.Vec) error {
	if ls.up == nil || msg.Codec != ls.codecSpec {
		return fmt.Errorf("%w: node %d sent codec %q, platform expects %q", errDecode, ls.base+i, msg.Codec, ls.codecSpec)
	}
	params, wireRanges, err := ls.up[i].DecodeMasked(msg.Payload, theta)
	if err != nil {
		return fmt.Errorf("%w: node %d: %v", errDecode, ls.base+i, err)
	}
	if mask := ls.roundMask(round); mask != nil && wireRanges == nil && len(params) == len(theta) {
		projectMask(params, theta, mask)
	}
	msg.Params = params
	return nil
}

// errDecode marks a delivered update whose payload could not be decoded —
// wire corruption or a broken codec reference chain. Fault-tolerant rounds
// treat it like a sanitation reject (gatherFailed); strict rounds abort.
var errDecode = errors.New("core: undecodable update payload")

// billDown accounts one downlink (platform→node) parameter message of
// nBytes wire bytes, billed on the attempted send — the transport cannot
// tell delivered from lost (see CommStats.Messages).
func (ls *linkSet) billDown(node, round int, probe bool, nBytes int64) {
	ls.stats.Messages++
	ls.stats.Bytes += nBytes
	if ls.obs != nil {
		t := obs.TypeBroadcast
		if probe {
			t = obs.TypeProbe
		}
		ls.obs.Observe(obs.Event{Type: t, Round: round, Node: ls.base + node, Bytes: nBytes})
	}
}

// billUp accounts one delivered uplink (node→platform) update message.
func (ls *linkSet) billUp(node, round int, nBytes int64) {
	ls.stats.Messages++
	ls.stats.Bytes += nBytes
	if ls.obs != nil {
		ls.obs.Observe(obs.Event{Type: obs.TypeUpdate, Round: round, Node: ls.base + node, Bytes: nBytes})
	}
}

// markSuspect removes node i from the active set. In fault-tolerant mode the
// link stays open and the node is re-probed every following round.
func (ls *linkSet) markSuspect(i, round int, cause error) {
	if !ls.alive[i] {
		return
	}
	ls.alive[i] = false
	ls.aliveCnt--
	ls.stats.Dropped++
	// The node may have missed any number of messages while unreachable, so
	// its codec reference chains are unusable until a full resync.
	ls.resyncLink(i)
	if ls.obs != nil {
		ls.obs.Observe(obs.Event{Type: obs.TypeDrop, Round: round, Node: ls.base + i, Alive: ls.aliveCnt, Cause: cause.Error()})
	}
	ls.logf("core: dropped node %d in round %d (%d alive): %v", ls.base+i, round, ls.aliveCnt, cause)
}

// markBudgetFiltered accounts a sampled node excluded from round because its
// modeled cost (joules) exceeded the energy/deadline budget. Like the other
// billing helpers, this is the only place counter or event side changes.
func (ls *linkSet) markBudgetFiltered(i, round int, joules float64) {
	ls.stats.BudgetFiltered++
	if ls.obs != nil {
		ls.obs.Observe(obs.Event{Type: obs.TypeBudgetFilter, Round: round, Node: ls.base + i, Value: joules})
	}
	ls.logf("core: node %d filtered from round %d by budget (modeled %.3g J)", ls.base+i, round, joules)
}

// probeFailed records one more unanswered (or undecodable) re-probe of
// suspect i. Under a sync mask, probeEscalation consecutive failures clear
// the link's maskReady flag: the masked resync offer was not enough, so the
// next probe carries a full unmasked payload that can rebuild the node's
// scatter reference from nothing.
func (ls *linkSet) probeFailed(i int) {
	if ls.probeFails == nil {
		return
	}
	ls.probeFails[i]++
	if ls.probeFails[i] >= probeEscalation {
		ls.maskReady[i] = false
		ls.probeFails[i] = 0
	}
}

// rejoin re-admits a suspect node that answered a re-probe.
func (ls *linkSet) rejoin(i, round int) {
	ls.alive[i] = true
	ls.aliveCnt++
	ls.stats.Rejoined++
	if ls.probeFails != nil {
		ls.probeFails[i] = 0
	}
	if ls.obs != nil {
		ls.obs.Observe(obs.Event{Type: obs.TypeRejoin, Round: round, Node: ls.base + i, Alive: ls.aliveCnt})
	}
	ls.logf("core: node %d rejoined in round %d (%d alive)", ls.base+i, round, ls.aliveCnt)
}

// markStaleApply accounts an update applied at positive staleness s with a
// decayed weight (async mode). Like the billing helpers above, this is the
// only place either the counter or the event side changes, so counter/event
// parity holds by construction.
func (ls *linkSet) markStaleApply(i, round, s int) {
	ls.stats.StaleApplied++
	if ls.obs != nil {
		ls.obs.Observe(obs.Event{Type: obs.TypeStaleApply, Round: round, Node: ls.base + i, Value: float64(s)})
	}
}

// markStaleDrop accounts an update discarded because its staleness exceeded
// the MaxStaleness drop bound (async mode).
func (ls *linkSet) markStaleDrop(i, round, s int) {
	ls.stats.StaleDropped++
	if ls.obs != nil {
		ls.obs.Observe(obs.Event{Type: obs.TypeStaleDrop, Round: round, Node: ls.base + i, Value: float64(s)})
	}
	ls.logf("core: dropped stale update from node %d in round %d (staleness %d > max %d)", ls.base+i, round, s, ls.c.MaxStaleness)
}

// bindNodeID validates the claimed NodeID of an update from link i against
// the binding learned from that link's first update.
func (ls *linkSet) bindNodeID(i, id int) error {
	if prev := ls.expectID[i]; prev >= 0 {
		if id != prev {
			return fmt.Errorf("%w: link %d update claims node %d, but the link is bound to node %d", ErrProtocol, ls.base+i, id, prev)
		}
		return nil
	}
	if other, taken := ls.boundBy[id]; taken && other != i {
		return fmt.Errorf("%w: node id %d claimed by links %d and %d (misrouted or duplicated update)", ErrProtocol, id, ls.base+other, ls.base+i)
	}
	ls.expectID[i] = id
	ls.boundBy[id] = i
	return nil
}

// gatherFrom waits up to d for link i's update to the given round,
// validating protocol shape, payload decode and NodeID binding — the one
// vetting path for every gathered update. In fault-tolerant mode it drains
// stale answers to earlier rounds (late replies from a node that was dropped
// and is coming back) instead of treating them as violations. anyRound
// accepts a reply to any round instead: the async sweep weighs staleness by
// θ-version at apply time. theta is the current global vector masked
// payloads scatter into; its length is the expected update dimension.
// Decode failures (errDecode) return the message alongside the error so the
// caller can bill the bytes that did cross the wire.
func (ls *linkSet) gatherFrom(i, round int, theta tensor.Vec, d time.Duration, anyRound bool) (transport.Msg, error) {
	dim := len(theta)
	var deadline time.Time
	if ls.ft {
		deadline = time.Now().Add(d)
	}
	for {
		remain := d
		if ls.ft {
			remain = time.Until(deadline)
			if remain <= 0 {
				// The overall gather budget was consumed by earlier traffic
				// on this link (stale drains) before a receive could even be
				// issued — distinct from a receive that waited and timed out
				// below, so suspect causes name the budget that ran out.
				return transport.Msg{}, fmt.Errorf("core: gather round %d from node %d: %v round budget exhausted before receive: %w", round, ls.base+i, d, transport.ErrTimeout)
			}
		}
		msg, err := ls.ops.recv(i, remain)
		if err != nil {
			if errors.Is(err, transport.ErrTimeout) {
				return transport.Msg{}, fmt.Errorf("core: gather round %d from node %d: receive timed out after waiting the final %v of the %v budget: %w", round, ls.base+i, remain, d, err)
			}
			return transport.Msg{}, fmt.Errorf("core: gather round %d from node %d: %w", round, ls.base+i, err)
		}
		switch {
		case msg.Kind == transport.KindError:
			return transport.Msg{}, fmt.Errorf("core: node %d failed in round %d: %s", msg.NodeID, round, msg.Err)
		case msg.Kind != transport.KindUpdate:
			return transport.Msg{}, fmt.Errorf("%w: expected update, got %v from node %d", ErrProtocol, msg.Kind, ls.base+i)
		}
		if msg.Round != round && !anyRound {
			if ls.ft && msg.Round < round {
				ls.logf("core: discarding stale round-%d update from link %d during round %d", msg.Round, ls.base+i, round)
				continue
			}
			return transport.Msg{}, fmt.Errorf("%w: node %d answered round %d during round %d", ErrProtocol, ls.base+i, msg.Round, round)
		}
		if msg.Codec != "" || len(msg.Payload) > 0 {
			if err := ls.decodeUp(i, round, &msg, theta); err != nil {
				return msg, err
			}
			if len(msg.Params) != dim {
				return msg, fmt.Errorf("%w: node %d payload decoded to %d params, want %d", errDecode, ls.base+i, len(msg.Params), dim)
			}
		} else if len(msg.Params) != dim {
			return transport.Msg{}, fmt.Errorf("%w: node %d sent %d params, want %d", ErrProtocol, ls.base+i, len(msg.Params), dim)
		}
		if err := ls.bindNodeID(i, msg.NodeID); err != nil {
			return transport.Msg{}, err
		}
		return msg, nil
	}
}

// gatherFailed settles a failed fault-tolerant gather from link i. A
// delivered but undecodable update (wire corruption or a broken reference
// chain) is billed and rejected — the node stays in the federation; any
// other failure suspects the node.
func (ls *linkSet) gatherFailed(i, round int, msg transport.Msg, err error) {
	if errors.Is(err, errDecode) {
		ls.billUp(i, round, wireBytes(msg))
		ls.reject(i, round, err)
		return
	}
	ls.markSuspect(i, round, err)
}

// reject accounts a delivered update discarded by vetting: the sanitation
// guard, or an undecodable payload, which also forces a full codec resync
// so the next exchange re-establishes the link's reference chain.
func (ls *linkSet) reject(i, round int, cause error) {
	ls.stats.Rejected++
	if ls.obs != nil {
		ls.obs.Observe(obs.Event{Type: obs.TypeReject, Round: round, Node: ls.base + i, Cause: cause.Error()})
	}
	if errors.Is(cause, errDecode) {
		ls.resyncLink(i)
	}
	ls.logf("core: rejected update from node %d in round %d: %v", ls.base+i, round, cause)
}

// broadcast sends θ with step count t0, stamped with θ-version ver (0 on
// the sync path), to each selected link and returns the links that took it.
// A failed send suspects the node in fault-tolerant mode and aborts the run
// otherwise.
func (ls *linkSet) broadcast(round, t0, ver int, theta tensor.Vec, selected []int) ([]int, error) {
	sent := make([]int, 0, len(selected))
	for _, i := range selected {
		// Ownership of Msg.Params/Payload transfers to the receiver on
		// Send (see transport.Msg). theta is the caller's reusable
		// aggregation buffer — and in fault-tolerant mode the async
		// pump may deliver the message after this round's aggregation
		// has overwritten it — so every broadcast carries its own copy
		// (a clone when raw, a freshly encoded payload otherwise).
		m, err := ls.paramsMsg(theta, i, round, t0, false)
		if err != nil {
			return nil, err
		}
		m.Version = ver
		nBytes := wireBytes(m)
		if err := ls.ops.send(i, m); err != nil {
			if ls.ft {
				ls.markSuspect(i, round, err)
				continue
			}
			return nil, fmt.Errorf("core: broadcast round %d to node %d: %w", round, ls.base+i, err)
		}
		sent = append(sent, i)
		ls.billDown(i, round, false, nBytes)
	}
	return sent, nil
}

// probe re-offers θ to every suspect in fault-tolerant mode and returns the
// links that took the offer: a dropped node that has recovered answers like
// any other and rejoins. The suspect re-probe runs regardless of selection —
// probing is liveness maintenance, not participation. Every probe resyncs
// the link's codec chains first, so an unanswered probe cannot advance the
// reference a revived node has never seen.
func (ls *linkSet) probe(round, t0, ver int, theta tensor.Vec) ([]int, error) {
	if !ls.ft {
		return nil, nil
	}
	var probed []int
	for i := range ls.alive {
		if ls.alive[i] {
			continue
		}
		m, err := ls.paramsMsg(theta, i, round, t0, true)
		if err != nil {
			return nil, err
		}
		m.Version = ver
		nBytes := wireBytes(m)
		if err := ls.ops.trySend(i, m, ls.probeTO); err != nil {
			continue
		}
		probed = append(probed, i)
		ls.billDown(i, round, true, nBytes)
	}
	return probed, nil
}

// minNodes resolves the abort threshold for fault-tolerant runs.
func (ls *linkSet) minNodes() int {
	if ls.c.MinNodes == 0 {
		return 1
	}
	return ls.c.MinNodes
}

// shutdown tells every node training is over. Failures here are not drops —
// training is already complete — so they are logged under a named phase and
// excluded from the Dropped count.
func (ls *linkSet) shutdown() error {
	for i := range ls.alive {
		if !ls.alive[i] {
			if ls.ft {
				// Best-effort farewell so a node that revives later exits
				// cleanly instead of waiting for a round that never comes.
				_ = ls.ops.trySend(i, transport.Msg{Kind: transport.KindDone}, ls.probeTO)
			}
			continue
		}
		if err := ls.ops.send(i, transport.Msg{Kind: transport.KindDone}); err != nil {
			if ls.ft {
				ls.logf("core: shutdown: done to node %d failed: %v", ls.base+i, err)
				continue
			}
			return fmt.Errorf("core: done to node %d: %w", ls.base+i, err)
		}
	}
	return nil
}
