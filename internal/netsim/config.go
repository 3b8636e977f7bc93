// Package netsim composes the Human Intranet layers — internal/channel,
// internal/radio, internal/mac, internal/routing, internal/app — into a
// runnable network over the internal/des kernel. It is the Castalia
// substitute of this reproduction: given one network configuration it
// simulates the shared broadcast medium with time-varying per-link path
// loss, half-duplex radios, collisions, and per-node energy accounting,
// and reports the paper's performance metrics (network lifetime, Eq. 4;
// packet delivery ratio, Eqs. 6–7).
package netsim

import (
	"fmt"
	"io"

	"hiopt/internal/app"
	"hiopt/internal/body"
	"hiopt/internal/channel"
	"hiopt/internal/fault"
	"hiopt/internal/mac"
	"hiopt/internal/phys"
	"hiopt/internal/radio"
)

// MACKind selects the MAC protocol (the paper's binary P_MAC).
type MACKind int

const (
	// CSMA is non-persistent carrier-sense multiple access.
	CSMA MACKind = iota
	// TDMA is round-robin time-division multiple access.
	TDMA
)

func (k MACKind) String() string {
	switch k {
	case CSMA:
		return "CSMA"
	case TDMA:
		return "TDMA"
	default:
		return fmt.Sprintf("MACKind(%d)", int(k))
	}
}

// RoutingKind selects the topology (the paper's binary P_rt).
type RoutingKind int

const (
	// Star routes through a central coordinator hub.
	Star RoutingKind = iota
	// Mesh uses controlled flooding with bounded hop count.
	Mesh
)

func (k RoutingKind) String() string {
	switch k {
	case Star:
		return "Star"
	case Mesh:
		return "Mesh"
	default:
		return fmt.Sprintf("RoutingKind(%d)", int(k))
	}
}

// Config fully describes one simulated network: the paper's (ν, χ) pair
// plus simulation horizon and environment parameters.
type Config struct {
	// Locations lists the body-location index of every node (the nonzero
	// entries of the topology vector ν). Order defines node indices.
	Locations []int
	// BodyLocations is the placement geometry; nil selects body.Default().
	BodyLocations []body.Location

	// Radio is the PHY component; TxMode indexes Radio.TxModes (the
	// paper's p1/p2/p3 selection).
	Radio  radio.Spec
	TxMode int

	// MAC selects the access protocol; CSMAParams tunes CSMA and
	// TDMABuffer sizes the TDMA transmit buffer.
	MAC        MACKind
	CSMAParams mac.CSMAParams
	TDMABuffer int
	// SlotSeconds is the TDMA slot duration T_slot.
	SlotSeconds float64

	// Routing selects the topology. CoordinatorLoc is the body location
	// of the star hub (n_coor; the chest in the design example); NHops is
	// the mesh flood bound.
	Routing        RoutingKind
	CoordinatorLoc int
	NHops          int

	// App is the traffic configuration (φ and L_pkt).
	App app.Params
	// BaselineMW is the node baseline power P_bl.
	BaselineMW phys.MilliWatt
	// BatteryJ is the stored energy Ē_bat of a non-coordinator node.
	BatteryJ phys.Joule

	// Channel parametrizes the path-loss model.
	Channel channel.Params
	// ChannelMatrix, when non-nil, replaces the synthetic geometric mean
	// path-loss model with a measured matrix (dB, indexed by body
	// location; see channel.NewFromMatrix). Temporal variation still
	// follows Channel's parameters.
	ChannelMatrix [][]phys.DB
	// Duration is the simulated time horizon T_sim in seconds.
	Duration float64

	// CaptureDB enables SINR capture at receivers: when two audible
	// packets overlap, the stronger survives if it exceeds the weaker by
	// at least this margin (0 disables capture — any overlap destroys
	// both copies, the default and the paper's pessimistic assumption).
	CaptureDB phys.DB
	// IdleListening, when true, models radios without a wake-up
	// receiver: the receive chain draws RxConsumptionMW whenever not
	// transmitting, instead of only during packet receptions. The paper
	// assumes duty-cycled radios ("most modern radios stay in sleep mode
	// by default"); this switch quantifies what that assumption buys.
	IdleListening bool
	// Failures schedules permanent node failures (failure injection for
	// robustness studies): the node at the given body location stops
	// transmitting, receiving, and generating at the given time.
	Failures []NodeFailure
	// Scenario, when non-nil, layers a timed fault schedule over the run:
	// node hard-failures, node outage/recovery windows, per-link shadowing
	// bursts, and battery-exhaustion acceleration (see internal/fault).
	// Unlike Failures, faults referencing body locations absent from
	// Locations are inert rather than invalid, so one scenario family can
	// screen design candidates with differing topologies. An empty (or
	// nil) scenario yields results bit-identical to no scenario at all.
	Scenario *fault.Scenario

	// Trace, when non-nil, receives a CSV event log of the run
	// (time, event, node location, origin, dst, seq, detail) — the
	// debugging facility of the simulator. Tracing costs I/O; leave nil
	// for optimization runs.
	Trace io.Writer
}

// NodeFailure is one scheduled permanent node outage.
type NodeFailure struct {
	// Location is the body-location index of the failing node.
	Location int
	// At is the failure time in seconds.
	At float64
}

// PaperAppParams are the design-example application settings: 100-byte
// packets every 100 ms (φ = 10 packets/s).
func PaperAppParams() app.Params {
	return app.DefaultParams()
}

// CR2032EnergyJ is the usable energy of the design example's coin cell:
// 225 mAh at a nominal 3 V ≈ 2430 J.
const CR2032EnergyJ phys.Joule = 2430

// DefaultConfig assembles the design-example configuration of §4.1 around
// the given topology and protocol choices: CC2650 radio, 1 ms TDMA slots,
// chest coordinator, NHops = 2, 100 µW baseline, CR2032 battery, 600 s
// horizon.
func DefaultConfig(locations []int, m MACKind, r RoutingKind, txMode int) Config {
	return Config{
		Locations:      locations,
		Radio:          radio.CC2650(),
		TxMode:         txMode,
		MAC:            m,
		CSMAParams:     mac.DefaultCSMAParams(),
		TDMABuffer:     mac.DefaultTDMAParams().BufferCap,
		SlotSeconds:    0.001,
		Routing:        r,
		CoordinatorLoc: body.Chest,
		NHops:          2,
		App:            PaperAppParams(),
		BaselineMW:     0.1,
		BatteryJ:       CR2032EnergyJ,
		Channel:        channel.DefaultParams(),
		Duration:       600,
	}
}

// Validate checks the configuration for structural errors. It returns nil
// when the configuration is simulatable.
func (c *Config) Validate() error {
	locs := c.bodyLocations()
	n := len(c.Locations)
	if n < 2 {
		return fmt.Errorf("netsim: need at least 2 nodes, have %d", n)
	}
	if n > 16 {
		return fmt.Errorf("netsim: at most 16 nodes supported (visited bitmask), have %d", n)
	}
	seen := make(map[int]bool)
	for _, l := range c.Locations {
		if l < 0 || l >= len(locs) {
			return fmt.Errorf("netsim: location index %d out of range [0, %d)", l, len(locs))
		}
		if seen[l] {
			return fmt.Errorf("netsim: duplicate location %d", l)
		}
		seen[l] = true
	}
	if c.TxMode < 0 || c.TxMode >= len(c.Radio.TxModes) {
		return fmt.Errorf("netsim: tx mode %d out of range for %s", c.TxMode, c.Radio.Name)
	}
	if c.Routing == Star && !seen[c.CoordinatorLoc] {
		return fmt.Errorf("netsim: star coordinator location %d not among node locations %v", c.CoordinatorLoc, c.Locations)
	}
	if c.Routing == Mesh && c.NHops < 1 {
		return fmt.Errorf("netsim: mesh needs NHops >= 1, have %d", c.NHops)
	}
	if c.App.RatePPS <= 0 || c.App.Bytes <= 0 {
		return fmt.Errorf("netsim: invalid app params %+v", c.App)
	}
	if c.MAC == TDMA {
		if c.SlotSeconds <= 0 {
			return fmt.Errorf("netsim: TDMA needs a positive slot duration")
		}
		if air := c.Radio.PacketAirtime(c.App.Bytes); air > c.SlotSeconds {
			return fmt.Errorf("netsim: packet airtime %.4g s exceeds TDMA slot %.4g s", air, c.SlotSeconds)
		}
	}
	if c.Duration <= 0 {
		return fmt.Errorf("netsim: non-positive duration %g", c.Duration)
	}
	if c.BatteryJ <= 0 {
		return fmt.Errorf("netsim: non-positive battery energy %g", float64(c.BatteryJ))
	}
	if c.CaptureDB < 0 {
		return fmt.Errorf("netsim: negative capture threshold %g", float64(c.CaptureDB))
	}
	for _, f := range c.Failures {
		if !seen[f.Location] {
			return fmt.Errorf("netsim: failure scheduled for absent location %d", f.Location)
		}
		if f.At < 0 {
			return fmt.Errorf("netsim: failure time %g before simulation start", f.At)
		}
	}
	if err := c.Scenario.Validate(); err != nil {
		return fmt.Errorf("netsim: %v", err)
	}
	return nil
}

// defaultBody is body.Default(), built once. Nothing in the package
// writes to it.
var defaultBody = body.Default()

// bodyLocations resolves the geometry, defaulting to the standard body.
func (c *Config) bodyLocations() []body.Location {
	if c.BodyLocations != nil {
		return c.BodyLocations
	}
	return defaultBody
}

// Label renders a short human-readable identifier such as
// "[0 1 3 6] Star CSMA -10dBm", matching the annotations of Fig. 3.
func (c *Config) Label() string {
	return fmt.Sprintf("%v %s %s %+gdBm", c.Locations, c.Routing, c.MAC,
		float64(c.Radio.TxModes[c.TxMode].OutputDBm))
}
