package netsim

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"hiopt/internal/app"
	"hiopt/internal/channel"
	"hiopt/internal/des"
	"hiopt/internal/fault"
	"hiopt/internal/mac"
	"hiopt/internal/phys"
	"hiopt/internal/rng"
	"hiopt/internal/routing"
	"hiopt/internal/stack"
)

// transmission is one in-flight packet on the shared medium. Instances are
// recycled through the owning Network's txPool: the per-node slices are
// allocated once and zeroed on reuse, and finishFn is the end-of-airtime
// callback bound once at allocation so scheduling it never closes over a
// fresh variable. A transmission is only valid between transmit and the
// finish call that releases it.
type transmission struct {
	net       *Network
	sender    *node
	p         stack.Packet
	end       float64
	audible   []bool // per node index, sampled at transmission start
	corrupted []bool // per node index: collision or half-duplex deafness
	rxDBm     []phys.DBm
	finishFn  func()
}

// node composes the four layers and implements stack.Env / app.Env.
type node struct {
	net *Network
	id  int // node index in [0, N)
	loc int // body location index

	mac stack.MAC
	rt  stack.Routing
	app *app.Layer

	transmitting bool
	down         bool
	// permanent marks a hard failure (no recovery); downAt is when the
	// current down period began and downtime accumulates completed down
	// periods (outage windows) for idle-listening energy accounting.
	permanent bool
	downAt    float64
	downtime  float64
	// drainScale, when positive, multiplies accounted radio energy in the
	// battery-exhaustion check (fault.BatteryDrain acceleration).
	drainScale float64
	aliveUntil float64
	txEnergyJ  float64
	rxEnergyJ  float64
	txCount    uint64
	rxClean    uint64
	rxCorrupt  uint64

	// streams holds the node's named random streams by value, one per
	// entry of streamNames (see RNG).
	streams [len(streamNames)]rng.Stream
}

// streamNames are the stream names the protocol layers ask a node for.
var streamNames = [...]string{"app/phase", "app/jitter", "mac/csma"}

// nodeStreamKey hashes the stream name "node/<loc>/<name>". It formats
// the name in a buffer on the stack, so deriving a stream allocates
// nothing.
func nodeStreamKey(loc int, name string) rng.Key {
	var buf [32]byte
	b := append(buf[:0], "node/"...)
	b = strconv.AppendInt(b, int64(loc), 10)
	b = append(b, '/')
	b = append(b, name...)
	return rng.KeyOf(string(b))
}

// Network is one simulation instance.
type Network struct {
	cfg     Config
	sim     *des.Simulator
	ch      *channel.Model
	src     *rng.Source
	nodes   []*node
	airtime float64
	// txJ and rxJ are the radio energy of one packet's airtime in TX and
	// RX mode, charged per transmission and per reception.
	txJ, rxJ float64
	coordID  int // node index of the star coordinator, -1 for mesh

	active     []*transmission
	collisions uint64

	// txPool recycles transmission structs and their per-node slices so a
	// steady-state run allocates nothing per packet on the medium.
	txPool []*transmission

	// outages holds merged per-pair link-outage windows from the fault
	// scenario, keyed by canonical location pair; nil when the scenario
	// schedules none, keeping the nominal transmit path untouched.
	outages map[int]*outageWindows
}

// outageWindows is one location pair's sorted, merged outage windows with
// a monotone cursor — transmit times never decrease, so lookups advance
// the cursor instead of binary-searching.
type outageWindows struct {
	win [][2]float64
	cur int
}

// pairKey canonicalizes an unordered location pair into a map key.
func pairKey(a, b int) int {
	if a > b {
		a, b = b, a
	}
	return a<<8 | b
}

// outageExtraDB is the attenuation a link-outage burst layers on top of
// the nominal path loss — far below any receiver sensitivity, while the
// fading process still advances so scenario runs share random numbers
// with the nominal run.
const outageExtraDB phys.DB = 120

// trace appends one event line to the configured trace writer. Hot call
// sites guard on cfg.Trace != nil themselves so detail strings are only
// formatted when tracing is on; the CSV header is written by New.
func (n *Network) trace(event string, nd *node, p *stack.Packet, detail string) {
	w := n.cfg.Trace
	if w == nil {
		return
	}
	if p != nil {
		fmt.Fprintf(w, "%.6f,%s,%d,%d,%d,%d,%s\n", n.sim.Now(), event, nd.loc, p.Origin, p.Dst, p.Seq, detail)
	} else {
		fmt.Fprintf(w, "%.6f,%s,%d,,,,%s\n", n.sim.Now(), event, nd.loc, detail)
	}
}

// New builds a network from a validated configuration and a master seed.
func New(cfg Config, seed uint64) (*Network, error) {
	return newWith(cfg, seed, des.New(), &channel.Model{})
}

// newWith builds a network on an existing (freshly constructed or Reset)
// simulator kernel and re-seeds ch in place as its channel, so an
// Evaluator can amortize the kernel's event pool and calendar and the
// channel's storage, stream-name hashes and ρ table across many runs.
func newWith(cfg Config, seed uint64, sim *des.Simulator, ch *channel.Model) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Trace != nil {
		// The header is written at construction, not lazily on the first
		// traced event, so evaluations sharing a writer cannot interleave a
		// duplicate header between another network's lines.
		fmt.Fprintln(cfg.Trace, "time,event,node_loc,origin,dst,seq,detail")
	}
	src := rng.NewSource(seed)
	locs := cfg.bodyLocations()
	if cfg.ChannelMatrix != nil {
		if err := ch.ResetFromMatrix(cfg.ChannelMatrix, cfg.Channel, src); err != nil {
			return nil, err
		}
		if ch.NumLocations() < len(locs) {
			return nil, fmt.Errorf("netsim: channel matrix covers %d locations, need %d", ch.NumLocations(), len(locs))
		}
	} else {
		ch.Reset(locs, cfg.Channel, src)
	}
	airtime := cfg.Radio.PacketAirtime(cfg.App.Bytes)
	n := &Network{
		cfg:     cfg,
		sim:     sim,
		ch:      ch,
		src:     src,
		airtime: airtime,
		txJ:     float64(cfg.Radio.TxModes[cfg.TxMode].ConsumptionMW) / 1000 * airtime,
		rxJ:     float64(cfg.Radio.RxConsumptionMW) / 1000 * airtime,
		coordID: -1,
	}
	for i, loc := range cfg.Locations {
		nd := &node{net: n, id: i, loc: loc, aliveUntil: cfg.Duration}
		if cfg.Routing == Star && loc == cfg.CoordinatorLoc {
			n.coordID = i
		}
		n.nodes = append(n.nodes, nd)
	}
	for _, nd := range n.nodes {
		switch cfg.MAC {
		case CSMA:
			nd.mac = mac.NewCSMA(nd, cfg.CSMAParams)
		case TDMA:
			nd.mac = mac.NewTDMA(nd, mac.TDMAParams{BufferCap: cfg.TDMABuffer})
		}
		switch cfg.Routing {
		case Star:
			nd.rt = routing.NewStar(nd)
		case Mesh:
			nd.rt = routing.NewMesh(nd, cfg.NHops)
		}
		// Generation stops a drain guard before the horizon so packets
		// already in flight can be delivered and counted — otherwise the
		// PDR estimate carries a small negative edge bias.
		nd.app = app.New(nd, cfg.App, nd.rt, cfg.Duration-drainGuard(cfg.Duration))
	}
	if sc := cfg.Scenario; sc != nil {
		if len(sc.Links) > 0 {
			n.outages = buildOutageWindows(sc.Links)
		}
		for _, d := range sc.Drains {
			if nd := n.nodeAt(d.Location); nd != nil {
				nd.drainScale = d.Factor
			}
		}
	}
	return n, nil
}

// nodeAt returns the node at a body location, or nil when the topology
// does not use it (scenario faults at absent locations are inert).
func (n *Network) nodeAt(loc int) *node {
	for _, nd := range n.nodes {
		if nd.loc == loc {
			return nd
		}
	}
	return nil
}

// buildOutageWindows groups link outages by canonical pair, sorts each
// pair's windows, and merges overlaps so the monotone cursor in
// linkBlocked is sound.
func buildOutageWindows(links []fault.LinkOutage) map[int]*outageWindows {
	byPair := make(map[int][][2]float64)
	for _, l := range links {
		k := pairKey(l.LocA, l.LocB)
		byPair[k] = append(byPair[k], [2]float64{l.Start, l.End})
	}
	out := make(map[int]*outageWindows, len(byPair))
	for k, win := range byPair {
		sort.Slice(win, func(i, j int) bool {
			if win[i][0] != win[j][0] {
				return win[i][0] < win[j][0]
			}
			return win[i][1] < win[j][1]
		})
		merged := win[:1]
		for _, w := range win[1:] {
			if last := &merged[len(merged)-1]; w[0] <= last[1] {
				if w[1] > last[1] {
					last[1] = w[1]
				}
			} else {
				merged = append(merged, w)
			}
		}
		out[k] = &outageWindows{win: merged}
	}
	return out
}

// linkBlocked reports whether the (a, b) link is inside an outage burst
// at time t. Callers guarantee t is non-decreasing per run (DES order).
func (n *Network) linkBlocked(a, b int, t float64) bool {
	w := n.outages[pairKey(a, b)]
	if w == nil {
		return false
	}
	for w.cur < len(w.win) && t >= w.win[w.cur][1] {
		w.cur++
	}
	return w.cur < len(w.win) && t >= w.win[w.cur][0]
}

// drainGuard returns the end-of-simulation quiet period during which no
// new packets are generated (50 ms, shrunk for very short horizons).
func drainGuard(duration float64) float64 {
	g := 0.05
	if duration < 5 {
		g = duration * 0.01
	}
	return g
}

// --- stack.Env / app.Env implementation on node ---

func (nd *node) NodeID() int   { return nd.id }
func (nd *node) NumNodes() int { return len(nd.net.nodes) }
func (nd *node) Now() float64  { return nd.net.sim.Now() }

func (nd *node) After(delay float64, fn func()) stack.Canceler {
	return nd.net.sim.Schedule(delay, fn)
}

// RNG derives streams by body location (not node index) so that two
// configurations sharing a location reuse the same random sequences —
// common random numbers across design candidates. The node owns one
// stream per entry of streamNames and re-derives it in place, so asking
// for a stream again restarts it. Any other name is a programming error.
func (nd *node) RNG(name string) *rng.Stream {
	for i, n := range streamNames {
		if n == name {
			nd.streams[i].Reseed(nd.net.src, nodeStreamKey(nd.loc, name))
			return &nd.streams[i]
		}
	}
	panic("netsim: no node stream named " + name)
}

func (nd *node) CarrierBusy() bool {
	for _, tx := range nd.net.active {
		if tx.sender != nd && tx.audible[nd.id] {
			return true
		}
	}
	return false
}

func (nd *node) Transmitting() bool { return nd.transmitting }
func (nd *node) Airtime() float64   { return nd.net.airtime }

func (nd *node) SlotSeconds() float64 { return nd.net.cfg.SlotSeconds }

// NextOwnedSlot computes the first round-robin slot boundary at or after t
// belonging to this node. Slot k (starting at k*T_slot) is owned by node
// k mod N.
func (nd *node) NextOwnedSlot(t float64) float64 {
	s := nd.net.cfg.SlotSeconds
	n := len(nd.net.nodes)
	k := int(math.Ceil(t/s - 1e-9))
	if k < 0 {
		k = 0
	}
	diff := (nd.id - k%n + n) % n
	return float64(k+diff) * s
}

func (nd *node) Transmit(p stack.Packet) { nd.net.transmit(nd, p) }

func (nd *node) PassUp(p stack.Packet) { nd.rt.FromMAC(p) }

func (nd *node) SendDown(p stack.Packet) bool {
	ok := nd.mac.Enqueue(p)
	if !ok && nd.net.cfg.Trace != nil {
		nd.net.trace("drop", nd, &p, "buffer-full")
	}
	return ok
}

func (nd *node) Deliver(p stack.Packet) {
	if nd.net.cfg.Trace != nil {
		nd.net.trace("deliver", nd, &p, "")
	}
	nd.app.OnDeliver(p)
}

func (nd *node) IsCoordinator() bool { return nd.net.coordID == nd.id }

// --- medium ---

// transmit starts a packet on the air: it samples per-receiver path loss,
// marks collisions against overlapping transmissions, and schedules the
// end-of-transmission processing.
func (n *Network) transmit(sender *node, p stack.Packet) {
	if sender.down {
		// A failed node's MAC timers may still fire; its radio is dead.
		return
	}
	if sender.transmitting {
		panic("netsim: node started transmitting while already on air")
	}
	now := n.sim.Now()
	tx := n.acquireTx()
	tx.sender = sender
	tx.p = p
	tx.end = now + n.airtime
	txOut := n.cfg.Radio.TxModes[n.cfg.TxMode].OutputDBm
	for _, r := range n.nodes {
		if r == sender || r.down {
			continue
		}
		pl := n.ch.PathLossAt(now, sender.loc, r.loc)
		if n.outages != nil && n.linkBlocked(sender.loc, r.loc, now) {
			pl += outageExtraDB
		}
		tx.audible[r.id] = n.cfg.Radio.Receivable(n.cfg.TxMode, pl)
		tx.rxDBm[r.id] = phys.ReceivedPower(txOut, pl)
		if r.transmitting {
			// Half-duplex: a node on air cannot receive.
			tx.corrupted[r.id] = true
		}
	}
	// Collisions with ongoing transmissions. Without capture, any
	// receiver that hears both packets decodes neither; with a capture
	// threshold the stronger survives if it clears the margin. The new
	// sender is also deaf to ongoing transmissions and they to it.
	for _, other := range n.active {
		other.corrupted[sender.id] = true
		collided := false
		for rid := range n.nodes {
			if rid == sender.id || rid == other.sender.id {
				continue
			}
			if tx.audible[rid] && other.audible[rid] {
				collided = true
				switch {
				case n.cfg.CaptureDB > 0 && tx.rxDBm[rid] >= other.rxDBm[rid]+phys.DBm(n.cfg.CaptureDB):
					other.corrupted[rid] = true
				case n.cfg.CaptureDB > 0 && other.rxDBm[rid] >= tx.rxDBm[rid]+phys.DBm(n.cfg.CaptureDB):
					tx.corrupted[rid] = true
				default:
					tx.corrupted[rid] = true
					other.corrupted[rid] = true
				}
			}
		}
		if collided {
			n.collisions++
		}
	}
	sender.transmitting = true
	n.active = append(n.active, tx)
	if n.cfg.Trace != nil {
		n.trace("tx", sender, &p, fmt.Sprintf("hops=%d", p.Hops))
	}
	n.sim.Schedule(n.airtime, tx.finishFn)
}

// acquireTx pops a recycled transmission (slices zeroed) or allocates one
// sized for this network.
func (n *Network) acquireTx() *transmission {
	if len(n.txPool) == 0 {
		N := len(n.nodes)
		tx := &transmission{
			net:       n,
			audible:   make([]bool, N),
			corrupted: make([]bool, N),
			rxDBm:     make([]phys.DBm, N),
		}
		tx.finishFn = func() { tx.net.finish(tx) }
		return tx
	}
	tx := n.txPool[len(n.txPool)-1]
	n.txPool = n.txPool[:len(n.txPool)-1]
	// transmit only writes entries conditionally (it skips the sender and
	// down nodes), so stale flags from the previous occupant must be wiped.
	clear(tx.audible)
	clear(tx.corrupted)
	clear(tx.rxDBm)
	return tx
}

// releaseTx returns a finished transmission to the pool.
func (n *Network) releaseTx(tx *transmission) {
	tx.sender = nil
	tx.p = stack.Packet{}
	n.txPool = append(n.txPool, tx)
}

// finish completes a transmission: accounts energy, delivers clean copies,
// and notifies the sender's MAC.
func (n *Network) finish(tx *transmission) {
	for i, a := range n.active {
		if a == tx {
			n.active = append(n.active[:i], n.active[i+1:]...)
			break
		}
	}
	sender := tx.sender
	sender.transmitting = false
	sender.txCount++
	sender.txEnergyJ += n.txJ
	if sender.drainScale > 0 {
		n.checkBattery(sender)
	}

	for _, r := range n.nodes {
		if r == sender || !tx.audible[r.id] || r.down {
			continue
		}
		if r.transmitting {
			// Deaf for the tail of the packet; its radio was in TX mode,
			// already accounted there.
			continue
		}
		r.rxEnergyJ += n.rxJ
		if r.drainScale > 0 {
			n.checkBattery(r)
			if r.down {
				// The battery expired during this reception: the packet
				// is lost with the radio.
				r.rxCorrupt++
				continue
			}
		}
		if tx.corrupted[r.id] {
			r.rxCorrupt++
			if n.cfg.Trace != nil {
				n.trace("rx-corrupt", r, &tx.p, "")
			}
			continue
		}
		r.rxClean++
		if n.cfg.Trace != nil {
			n.trace("rx", r, &tx.p, "")
		}
		r.mac.OnReceive(tx.p)
	}
	sender.mac.OnTxDone()
	n.releaseTx(tx)
}

// Start arms every node's protocol stack and schedules the configured
// failure injections, without advancing the clock. It is Run's setup
// phase, exposed separately so stepped drivers (benchmarks, interactive
// tools) can advance the kernel incrementally through Simulator().Run.
func (n *Network) Start() {
	for _, nd := range n.nodes {
		nd.mac.Start()
		nd.rt.Start()
	}
	for _, nd := range n.nodes {
		nd.app.Start()
	}
	for _, f := range n.cfg.Failures {
		for _, nd := range n.nodes {
			if nd.loc == f.Location {
				nd := nd
				n.sim.At(f.At, func() { n.failNode(nd, true) })
			}
		}
	}
	if sc := n.cfg.Scenario; sc != nil {
		n.scheduleScenario(sc)
	}
}

// scheduleScenario arms the timed faults of the configured scenario.
// Faults at body locations the topology does not use are inert; drains
// and link-outage windows are applied at construction.
func (n *Network) scheduleScenario(sc *fault.Scenario) {
	for _, f := range sc.Failures {
		if nd := n.nodeAt(f.Location); nd != nil {
			nd := nd
			n.sim.At(f.At, func() { n.failNode(nd, true) })
		}
	}
	for _, o := range sc.Outages {
		if nd := n.nodeAt(o.Location); nd != nil {
			nd := nd
			n.sim.At(o.Start, func() { n.failNode(nd, false) })
			n.sim.At(o.End, func() { n.recoverNode(nd) })
		}
	}
}

// failNode takes a node down: the application source stops, the MAC is
// halted with its pending timers cancelled through the des cancel path,
// and any packet this node has on the air loses its un-radiated tail.
// A permanent failure additionally freezes aliveUntil for the energy
// accounting; a non-permanent one is an outage recoverNode can undo.
func (n *Network) failNode(nd *node, permanent bool) {
	now := n.sim.Now()
	if nd.down {
		if permanent && !nd.permanent {
			// A hard failure landing inside an outage window upgrades it:
			// fold the open down period and pin the alive horizon.
			nd.permanent = true
			nd.downtime += now - nd.downAt
			nd.downAt = now
			nd.aliveUntil = now
		}
		return
	}
	nd.down = true
	nd.permanent = permanent
	nd.downAt = now
	if permanent {
		nd.aliveUntil = now
	}
	nd.app.Stop()
	nd.mac.Halt()
	if nd.transmitting {
		// The radio dies mid-packet: every in-flight copy from this
		// sender is truncated and lost at all receivers.
		for _, tx := range n.active {
			if tx.sender == nd {
				for rid := range tx.corrupted {
					tx.corrupted[rid] = true
				}
			}
		}
	}
	if n.cfg.Trace != nil {
		detail := "outage"
		if permanent {
			detail = "permanent"
		}
		n.trace("fail", nd, nil, detail)
	}
}

// recoverNode ends an outage: the MAC and application resume from an
// empty state (queued packets were lost with the outage) and the down
// period is folded into the idle-listening downtime.
func (n *Network) recoverNode(nd *node) {
	if !nd.down || nd.permanent {
		return
	}
	nd.down = false
	nd.downtime += n.sim.Now() - nd.downAt
	nd.mac.Resume()
	nd.app.Resume()
	if n.cfg.Trace != nil {
		n.trace("recover", nd, nil, "")
	}
}

// checkBattery fails a drain-accelerated node permanently once its scaled
// radio energy exceeds the battery. The check uses the event-accounted
// energy (idle-listening recomputation happens only at collection), which
// is exactly the consumption a duty-cycled radio would have burned.
func (n *Network) checkBattery(nd *node) {
	if nd.down {
		return
	}
	if phys.Joule((nd.txEnergyJ+nd.rxEnergyJ)*nd.drainScale) >= n.cfg.BatteryJ {
		n.failNode(nd, true)
		if n.cfg.Trace != nil {
			n.trace("battery", nd, nil, "exhausted")
		}
	}
}

// Run executes the simulation to the configured horizon and returns the
// measured metrics.
func (n *Network) Run() *Result {
	n.Start()
	n.sim.Run(n.cfg.Duration)
	return n.collect()
}

// Simulator exposes the kernel (used by tests and diagnostics).
func (n *Network) Simulator() *des.Simulator { return n.sim }

// Channel exposes the channel model (used by tests and diagnostics).
func (n *Network) Channel() *channel.Model { return n.ch }

func (n *Network) collect() *Result {
	res := &Result{}
	n.collectInto(res, nil)
	return res
}

// collectInto computes the run metrics into res, reusing res's slices when
// their capacity allows (so an evaluation loop can recycle one Result as
// scratch across repetitions), and lats as the latency merge buffer. It
// returns the (possibly grown) lats buffer for the caller to keep.
func (n *Network) collectInto(res *Result, lats []float64) []float64 {
	cfg := n.cfg
	N := len(n.nodes)
	layers := make([]*app.Layer, N)
	for i, nd := range n.nodes {
		layers[i] = nd.app
	}
	// Every entry of NodePDR and NodePower is assigned below, so recycled
	// slices only need resizing, not zeroing.
	nodePDR := res.NodePDR
	if cap(nodePDR) < N {
		nodePDR = make([]float64, N)
	}
	nodePower := res.NodePower
	if cap(nodePower) < N {
		nodePower = make([]phys.MilliWatt, N)
	}
	*res = Result{
		Locations:  append(res.Locations[:0], cfg.Locations...),
		Duration:   cfg.Duration,
		Runs:       1,
		NodePDR:    nodePDR[:N],
		NodePower:  nodePower[:N],
		Collisions: n.collisions,
	}
	for k := 0; k < N; k++ {
		res.NodePDR[k] = app.PDR(k, layers)
	}
	res.PDR = app.NetworkPDR(layers)

	worst := phys.MilliWatt(0)
	for i, nd := range n.nodes {
		rxJ := nd.rxEnergyJ
		if cfg.IdleListening {
			// No wake-up receiver: the RX chain is on whenever the node
			// is alive (not failed, not in an outage) and not transmitting.
			downtime := nd.downtime
			if nd.down && !nd.permanent {
				// An outage window still open at the horizon.
				downtime += cfg.Duration - nd.downAt
			}
			txTime := float64(float64(nd.txCount) * n.airtime)
			rxJ = float64(cfg.Radio.RxConsumptionMW) / 1000 * (nd.aliveUntil - downtime - txTime)
		}
		pw := cfg.BaselineMW + phys.MilliWatt((nd.txEnergyJ+rxJ)/cfg.Duration*1000)
		res.NodePower[i] = pw
		res.TxCount += nd.txCount
		res.RxClean += nd.rxClean
		res.RxCorrupt += nd.rxCorrupt
		res.Sent += nd.app.TotalSent()
		res.Delivered += nd.app.TotalReceived()
		if d, ok := nd.mac.(interface{ Drops() uint64 }); ok {
			res.MACDrops += d.Drops()
		}
		if cfg.Routing == Star && i == n.coordID {
			// The coordinator has larger energy storage and is excluded
			// from the lifetime minimum (paper §3).
			continue
		}
		if pw > worst {
			worst = pw
		}
	}
	res.MaxPower = worst
	res.NLTSeconds = phys.LifetimeSeconds(cfg.BatteryJ, worst)
	res.NLTDays = phys.Days(res.NLTSeconds)
	res.Events = n.sim.Processed()

	// End-to-end latency across all deliveries.
	lats = lats[:0]
	for _, nd := range n.nodes {
		lats = append(lats, nd.app.Latencies...)
		res.LatencyDropped += nd.app.LatencyDropped
	}
	if len(lats) > 0 {
		sort.Float64s(lats)
		sum := 0.0
		for _, v := range lats {
			sum += v
		}
		res.MeanLatency = sum / float64(len(lats))
		idx := (len(lats) * 95) / 100
		if idx >= len(lats) {
			idx = len(lats) - 1
		}
		res.P95Latency = lats[idx]
		res.MaxLatency = lats[len(lats)-1]
	}
	return lats
}

// Result is the outcome of one simulation run.
type Result struct {
	// Locations echoes the simulated topology.
	Locations []int
	// Duration is the simulated horizon in seconds.
	Duration float64
	// PDR is the overall network packet-delivery ratio, Eq. (7), in [0,1].
	PDR float64
	// NodePDR holds the per-node PDR_k values, Eq. (6).
	NodePDR []float64
	// NodePower is each node's average power draw including baseline.
	NodePower []phys.MilliWatt
	// MaxPower is the highest draw among lifetime-relevant nodes (the
	// coordinator is exempt in a star).
	MaxPower phys.MilliWatt
	// NLTSeconds and NLTDays express the network lifetime, Eq. (4).
	NLTSeconds float64
	NLTDays    float64

	// Traffic and medium statistics.
	Sent, Delivered      uint64
	TxCount              uint64
	RxClean, RxCorrupt   uint64
	Collisions, MACDrops uint64
	// Events is the number of kernel events processed.
	Events uint64
	// MeanLatency, P95Latency, and MaxLatency summarize end-to-end
	// delivery delay in seconds (0 when nothing was delivered).
	MeanLatency float64
	P95Latency  float64
	MaxLatency  float64
	// LatencyDropped counts deliveries whose latency sample was discarded
	// because a node's per-run record hit its cap (2^16 samples). Nonzero
	// means the latency summary above describes a truncated sample set.
	LatencyDropped uint64
	// PDRStdDev is the run-to-run standard deviation of the PDR estimate
	// (populated by RunAveraged when runs > 1; 0 otherwise). It lets
	// callers judge whether a configuration sits within noise of a
	// reliability bound.
	PDRStdDev float64
	// Runs is the number of replications averaged into this Result (1 for
	// a single simulation); with PDRStdDev it sizes the confidence
	// interval of PDRHalfWidth.
	Runs int
}

// Run is the convenience one-shot: build a network and run it.
func Run(cfg Config, seed uint64) (*Result, error) {
	return NewEvaluator().Run(cfg, seed)
}

// RunAveraged runs the configuration `runs` times with derived seeds
// (seed, seed+1, ...) and averages PDR and power metrics, following the
// paper's practice of averaging 3 runs to mitigate randomness. The
// returned Result's NLT is recomputed from the averaged worst-node power.
func RunAveraged(cfg Config, runs int, seed uint64) (*Result, error) {
	return NewEvaluator().RunAveraged(cfg, runs, seed)
}
