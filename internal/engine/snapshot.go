// Snapshot: the engine's persistent cache tier. A cache file is a
// versioned header followed by independent entries, one per completed
// (key, Result) pair:
//
//	header  = magic "HIENGSNP" | version u32 | context sig u64
//	entry   = point u32 | fidelity u8 | scenario u64 | paylen u32 |
//	          payload | fnv1a-64 checksum over (key prefix + payload)
//
// all little-endian. The payload stores netsim.Result field-by-field
// with exact float64 bit patterns, so a warm run returns bit-identical
// Results to the cold run that wrote the file.
//
// Robustness contract: a cache file is an accelerator, never an input a
// run depends on. Load never fails the run — a missing file, a foreign
// or version-bumped header, or a mismatched context signature all load
// zero entries; a corrupt entry (checksum or decode failure) is skipped
// individually; a truncated tail (e.g. a previous process killed
// mid-append) ends the scan but keeps every entry before it.
//
// Aliasing: the engine Key deliberately excludes duration, replication
// count, and seed — within one process every layer agrees on them, and
// screening runs get their own Fidelity namespace. Across processes that
// assumption breaks, so the header carries a context signature
// (ContextSig over duration/runs/seed): a file written at one fidelity
// loads zero entries at any other, and stale results can never alias
// fresh ones.
package engine

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"sort"

	"hiopt/internal/netsim"
	"hiopt/internal/phys"
)

const (
	snapMagic = "HIENGSNP"
	// snapVersion 2 appended Result.LatencyDropped to the payload. A
	// version-bumped header loads zero entries (older snapshots are simply
	// re-simulated), per the robustness contract in DESIGN.md §15.
	snapVersion = uint32(2)
	// snapHeaderLen is magic (8) + version (4) + context sig (8).
	snapHeaderLen = 20
	// snapEntryFixed is the fixed prefix of one entry: point (4) +
	// fidelity (1) + scenario (8) + payload length (4).
	snapEntryFixed = 17
	// snapMaxPayload bounds a single entry's payload; anything larger is
	// corrupt framing (a real Result payload is a few hundred bytes).
	snapMaxPayload = 1 << 20
	// snapMaxSlice bounds decoded slice lengths (node counts); a Result
	// never carries more than a handful of nodes.
	snapMaxSlice = 1 << 16
)

// ContextSig hashes the evaluation context a cache file is valid for —
// the simulation horizon, replication count, and master seed that the
// engine Key deliberately omits. Callers must pass the same values they
// configure their requests with; LoadCache and SpillTo use the signature
// to refuse files written under a different context (see the aliasing
// note above).
func ContextSig(duration float64, runs int, seed uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range [...]uint64{math.Float64bits(duration), uint64(int64(runs)), seed} {
		h ^= v
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

func fnv1a64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

func appendSnapHeader(buf []byte, sig uint64) []byte {
	buf = append(buf, snapMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, snapVersion)
	buf = binary.LittleEndian.AppendUint64(buf, sig)
	return buf
}

// checkSnapHeader reports whether data starts with a header this engine
// version wrote for the given context.
func checkSnapHeader(data []byte, sig uint64) bool {
	if len(data) < snapHeaderLen || string(data[:8]) != snapMagic {
		return false
	}
	if binary.LittleEndian.Uint32(data[8:]) != snapVersion {
		return false
	}
	return binary.LittleEndian.Uint64(data[12:]) == sig
}

// appendSnapEntry serializes one cache entry onto buf.
func appendSnapEntry(buf []byte, k Key, r *netsim.Result) []byte {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, k.Point)
	buf = append(buf, byte(k.Fidelity))
	buf = binary.LittleEndian.AppendUint64(buf, k.Scenario)
	lenAt := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // payload length, patched below
	buf = appendResult(buf, r)
	binary.LittleEndian.PutUint32(buf[lenAt:], uint32(len(buf)-lenAt-4))
	buf = binary.LittleEndian.AppendUint64(buf, fnv1a64(buf[start:]))
	return buf
}

func appendResult(buf []byte, r *netsim.Result) []byte {
	u32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	f64 := func(v float64) { buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v)) }
	u32(uint32(len(r.Locations)))
	for _, loc := range r.Locations {
		u32(uint32(loc))
	}
	f64(r.Duration)
	f64(r.PDR)
	u32(uint32(len(r.NodePDR)))
	for _, v := range r.NodePDR {
		f64(v)
	}
	u32(uint32(len(r.NodePower)))
	for _, v := range r.NodePower {
		f64(float64(v))
	}
	f64(float64(r.MaxPower))
	f64(r.NLTSeconds)
	f64(r.NLTDays)
	u64(r.Sent)
	u64(r.Delivered)
	u64(r.TxCount)
	u64(r.RxClean)
	u64(r.RxCorrupt)
	u64(r.Collisions)
	u64(r.MACDrops)
	u64(r.Events)
	f64(r.MeanLatency)
	f64(r.P95Latency)
	f64(r.MaxLatency)
	u64(r.LatencyDropped)
	f64(r.PDRStdDev)
	u64(uint64(int64(r.Runs)))
	return buf
}

// snapReader is a bounds-checked cursor over one entry payload; any
// overrun or implausible length marks it bad and zero-fills the rest.
type snapReader struct {
	b   []byte
	off int
	bad bool
}

func (r *snapReader) u32() uint32 {
	if r.bad || r.off+4 > len(r.b) {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *snapReader) u64() uint64 {
	if r.bad || r.off+8 > len(r.b) {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *snapReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *snapReader) count() int {
	n := r.u32()
	if n > snapMaxSlice {
		r.bad = true
		return 0
	}
	return int(n)
}

// decodeResult parses one payload; ok is false when the payload is
// malformed or has trailing garbage.
func decodeResult(payload []byte) (*netsim.Result, bool) {
	rd := &snapReader{b: payload}
	res := &netsim.Result{}
	if n := rd.count(); n > 0 {
		res.Locations = make([]int, n)
		for i := range res.Locations {
			res.Locations[i] = int(rd.u32())
		}
	}
	res.Duration = rd.f64()
	res.PDR = rd.f64()
	if n := rd.count(); n > 0 {
		res.NodePDR = make([]float64, n)
		for i := range res.NodePDR {
			res.NodePDR[i] = rd.f64()
		}
	}
	if n := rd.count(); n > 0 {
		res.NodePower = make([]phys.MilliWatt, n)
		for i := range res.NodePower {
			res.NodePower[i] = phys.MilliWatt(rd.f64())
		}
	}
	res.MaxPower = phys.MilliWatt(rd.f64())
	res.NLTSeconds = rd.f64()
	res.NLTDays = rd.f64()
	res.Sent = rd.u64()
	res.Delivered = rd.u64()
	res.TxCount = rd.u64()
	res.RxClean = rd.u64()
	res.RxCorrupt = rd.u64()
	res.Collisions = rd.u64()
	res.MACDrops = rd.u64()
	res.Events = rd.u64()
	res.MeanLatency = rd.f64()
	res.P95Latency = rd.f64()
	res.MaxLatency = rd.f64()
	res.LatencyDropped = rd.u64()
	res.PDRStdDev = rd.f64()
	res.Runs = int(int64(rd.u64()))
	if rd.bad || rd.off != len(payload) {
		return nil, false
	}
	return res, true
}

// SaveCache snapshots every resident result (used or still-unused
// loaded entries) to path, overwriting it, and returns the entry count.
// Entries are written in sorted key order so identical caches produce
// byte-identical files. sig must be the ContextSig of the evaluation
// context the results were produced under.
func (e *Engine) SaveCache(path string, sig uint64) (int, error) {
	type kv struct {
		k Key
		r *netsim.Result
	}
	var all []kv
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		for _, s := range sh.done.slots {
			if s.live {
				all = append(all, kv{s.key, s.val})
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i].k, all[j].k
		if a.Point != b.Point {
			return a.Point < b.Point
		}
		if a.Fidelity != b.Fidelity {
			return a.Fidelity < b.Fidelity
		}
		return a.Scenario < b.Scenario
	})
	f, err := os.Create(path)
	if err != nil {
		return 0, fmt.Errorf("engine: save cache: %w", err)
	}
	w := bufio.NewWriter(f)
	buf := appendSnapHeader(nil, sig)
	if _, err := w.Write(buf); err != nil {
		f.Close()
		return 0, fmt.Errorf("engine: save cache: %w", err)
	}
	for _, it := range all {
		buf = appendSnapEntry(buf[:0], it.k, it.r)
		if _, err := w.Write(buf); err != nil {
			f.Close()
			return 0, fmt.Errorf("engine: save cache: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, fmt.Errorf("engine: save cache: %w", err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("engine: save cache: %w", err)
	}
	return len(all), nil
}

// LoadCache reads a cache file into the persisted tier and returns the
// number of distinct keys it added to that tier. It never fails a run: a
// missing file, an unrecognized or version-bumped header, or a
// context-signature mismatch load zero entries with a nil error; corrupt
// entries are skipped individually; a truncated tail keeps everything
// before it. Loaded entries answer requests as disk hits and do not
// re-spill. On a bounded engine loaded entries are charged to the budget
// and never evict anything: an entry that does not fit its shard's share
// is left out and counted in Stats.LoadSkipped.
func (e *Engine) LoadCache(path string, sig uint64) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, nil
		}
		return 0, fmt.Errorf("engine: load cache: %w", err)
	}
	if !checkSnapHeader(data, sig) {
		return 0, nil
	}
	loaded := 0
	scanSnapshot(data, func(k Key, r *netsim.Result) {
		sh := e.shard(k)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		s := sh.done.get(k)
		if s != nil && !s.disk {
			return // already computed or used: the resident result stands
		}
		// A key repeated in the file (appended twice to a spill, or
		// written by two interleaved writers) counts once: the later
		// entry replaces the earlier one.
		bytes := resultBytes(r)
		if s == nil && sh.done.bytes+bytes > e.shardLimit() {
			e.stats.skipped.Add(1)
			return
		}
		if s == nil {
			loaded++
		}
		sh.done.put(k, r, bytes, true, noLimit)
	})
	return loaded, nil
}

// scanSnapshot walks the entries after a validated header, calling emit
// for each well-formed one, and returns the byte offset of the last
// intact entry boundary (framing damage or a truncated tail stop the
// scan there; checksum-skipped entries still advance it).
func scanSnapshot(data []byte, emit func(Key, *netsim.Result)) int {
	off := snapHeaderLen
	for {
		if len(data)-off < snapEntryFixed {
			return off
		}
		paylen := binary.LittleEndian.Uint32(data[off+13:])
		if paylen > snapMaxPayload {
			return off
		}
		end := off + snapEntryFixed + int(paylen) + 8
		if end > len(data) {
			return off
		}
		body := data[off : end-8]
		if fnv1a64(body) == binary.LittleEndian.Uint64(data[end-8:]) {
			k := Key{
				Point:    binary.LittleEndian.Uint32(data[off:]),
				Fidelity: Fidelity(data[off+4]),
				Scenario: binary.LittleEndian.Uint64(data[off+5:]),
			}
			if res, ok := decodeResult(body[snapEntryFixed:]); ok && k.Cacheable() {
				emit(k, res)
			}
		}
		off = end
	}
}
