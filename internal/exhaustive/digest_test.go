package exhaustive

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"hiopt/internal/design"
	"hiopt/internal/engine"
)

// sweepDigestPin is the digest of the whole 1320-point design space at a
// 2 s horizon (seed 1, two replications, nominal body), recorded before
// the simulator's 4-ary calendar, Δt-keyed ρ table and reused channel
// model landed. Those are speed changes only: any move of this value is a
// change of simulated output and must be explained, never re-pinned in
// passing.
const sweepDigestPin = "43b7dedf6041e01f12af95047204a016b55944f1220b0ad8525a39676676efd7"

// TestSweepDigestPinned is the bit-identity gate for the simulator stack:
// it simulates every design point through exhaustive.Search and hashes
// the bits of every point's PDR, per-node PDR and power, worst-node power,
// lifetime, latency summary and traffic counters, in point order, into
// one SHA-256 digest.
func TestSweepDigestPinned(t *testing.T) {
	pr := design.PaperProblem(0.9)
	pr.Duration = 2
	pr.Runs = 2
	eng, err := engine.New(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Search(pr, Options{Engine: eng}); err != nil {
		t.Fatal(err)
	}
	points := pr.Points()
	if len(points) != 1320 {
		t.Fatalf("design space has %d points, want 1320", len(points))
	}
	// The same keyed requests Search made: every one resolves from the
	// engine's cache and returns the full netsim.Result of its point.
	reqs := make([]engine.Request, len(points))
	for i, p := range points {
		reqs[i] = engine.Request{Cfg: pr.Config(p), Runs: pr.Runs, Seed: pr.Seed, Key: engine.PointKey(p.Key())}
	}
	before := eng.Stats()
	results, err := eng.EvaluateBatch(reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := eng.Stats().Sub(before); d.Simulated != 0 {
		t.Fatalf("fetching the sweep's results simulated %d points", d.Simulated)
	}
	h := sha256.New()
	var buf [8]byte
	f := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, r := range results {
		f(r.PDR)
		for _, v := range r.NodePDR {
			f(v)
		}
		for _, v := range r.NodePower {
			f(float64(v))
		}
		f(float64(r.MaxPower))
		f(r.NLTSeconds)
		f(r.NLTDays)
		f(r.MeanLatency)
		f(r.P95Latency)
		f(r.MaxLatency)
		f(r.PDRStdDev)
		for _, v := range []uint64{r.Sent, r.Delivered, r.TxCount, r.RxClean, r.RxCorrupt,
			r.Collisions, r.MACDrops, r.Events, r.LatencyDropped} {
			u(v)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != sweepDigestPin {
		t.Fatalf("1320-point sweep digest %s, pinned %s", got, sweepDigestPin)
	}
}
