package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
)

// This file extends the checkpoint format into a wire format: the
// distributed solve plane (internal/cluster) exchanges level slices of the
// DP lattice between a coordinator and its workers using the same defensive
// CRC framing that checkpoint files use on disk. A Plane is one such slice —
// a contiguous Gosper rank range of one popcount level's C values — plus
// the checksums the receiver verifies it against: the FNV-1a running
// checksum of the frozen frontier the sender computed from, and the FNV-1a
// checksum of the sender's p(S) values over the slice. Like the file format,
// every defect in a received image (framing, CRC, version, geometry) yields
// an error wrapping ErrCorrupt, never a wrong frontier.

// planeMagic distinguishes plane frames from checkpoint files sharing a
// buffer or a byte stream.
var planeMagic = [4]byte{'T', 'T', 'P', 'L'}

// MaxPlaneCells bounds how many cells one plane may carry — C(26,13), the
// widest level of the largest admissible universe — so a corrupt or hostile
// length field cannot make the receiver allocate unbounded memory.
const MaxPlaneCells = 10400600

// FNV-1a, the frozen-plane checksum of the PR 5 ABFT layer, reused here so
// a coordinator and a worker can agree on an entire frontier with eight
// bytes on the wire.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// FNVInit is the FNV-1a offset basis, the seed of every running checksum.
func FNVInit() uint64 { return fnvOffset }

// FNVAdd extends running checksum h with one 64-bit value, byte by byte.
func FNVAdd(h, v uint64) uint64 {
	for b := 0; b < 8; b++ {
		h = (h ^ (v >> uint(8*b) & 0xff)) * fnvPrime
	}
	return h
}

// AppendFrame appends one length+payload+CRC32-C frame to dst — the framing
// unit shared by checkpoint files and the cluster wire protocol.
func AppendFrame(dst, payload []byte) []byte { return appendFrame(dst, payload) }

// NextFrame slices one frame off data, verifying length and CRC. Every
// defect yields an error wrapping ErrCorrupt.
func NextFrame(data []byte) (payload, rest []byte, err error) { return nextFrame(data) }

// Plane is one level slice on the wire: the C values of the subsets with
// Gosper ranks [Lo, Hi) within level Level, in rank order — 8 bytes per
// subset.
type Plane struct {
	Level int    // popcount level the values belong to
	Lo    uint64 // first Gosper rank covered (inclusive)
	Hi    uint64 // one past the last rank covered

	// FrozenSum is the sender's FNV-1a running checksum over the C values of
	// every subset with popcount < Level, in (level, Gosper) order starting
	// from C(∅) — proof of which frontier the slice was computed from.
	FrozenSum uint64
	// WeightSum is the sender's FNV-1a checksum over p(S) for the slice's
	// subsets in rank order — the probability-conservation invariant reduced
	// to eight bytes: the receiver derives the same sums from the problem
	// weights, so any divergence is corruption.
	WeightSum uint64

	C []uint64 // len Hi-Lo
}

// planeMeta is the JSON header frame of an encoded plane.
type planeMeta struct {
	Level     int    `json:"level"`
	Lo        uint64 `json:"lo"`
	Hi        uint64 `json:"hi"`
	FrozenSum uint64 `json:"frozen_sum"`
	WeightSum uint64 `json:"weight_sum"`
}

// EncodePlane serializes one level slice with the checkpoint framing: magic,
// version, then a JSON meta frame and a cost frame, each CRC32-C protected.
func EncodePlane(p *Plane) ([]byte, error) {
	n := p.Hi - p.Lo
	if p.Level < 0 || p.Lo > p.Hi || n > MaxPlaneCells {
		return nil, fmt.Errorf("checkpoint: plane geometry level=%d lo=%d hi=%d", p.Level, p.Lo, p.Hi)
	}
	if uint64(len(p.C)) != n {
		return nil, fmt.Errorf("checkpoint: plane holds %d costs for %d ranks", len(p.C), n)
	}
	metaJSON, err := json.Marshal(&planeMeta{
		Level: p.Level, Lo: p.Lo, Hi: p.Hi,
		FrozenSum: p.FrozenSum, WeightSum: p.WeightSum,
	})
	if err != nil {
		return nil, err
	}
	costs := make([]byte, 0, 8*n)
	for _, c := range p.C {
		costs = binary.LittleEndian.AppendUint64(costs, c)
	}
	out := append([]byte(nil), planeMagic[:]...)
	out = binary.LittleEndian.AppendUint32(out, Version)
	out = appendFrame(out, metaJSON)
	return appendFrame(out, costs), nil
}

// DecodePlane parses and validates a plane image. Every defect — magic,
// version, framing, CRC, geometry, or trailing bytes — yields an error
// wrapping ErrCorrupt; a successful decode carries exactly the values the
// sender framed. Semantic verification (checksums, monotonicity, audits)
// is the receiver's job; this layer only guarantees transport integrity.
func DecodePlane(data []byte) (*Plane, error) {
	if len(data) < 8 || !bytes.Equal(data[:4], planeMagic[:]) {
		return nil, fmt.Errorf("%w: bad plane magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != Version {
		return nil, fmt.Errorf("%w: plane format version %d, want %d", ErrCorrupt, v, Version)
	}
	metaJSON, rest, err := nextFrame(data[8:])
	if err != nil {
		return nil, err
	}
	var m planeMeta
	if err := json.Unmarshal(metaJSON, &m); err != nil {
		return nil, fmt.Errorf("%w: plane meta: %v", ErrCorrupt, err)
	}
	n := m.Hi - m.Lo
	if m.Level < 0 || m.Lo > m.Hi || n > MaxPlaneCells {
		return nil, fmt.Errorf("%w: plane geometry level=%d lo=%d hi=%d", ErrCorrupt, m.Level, m.Lo, m.Hi)
	}
	costs, rest, err := nextFrame(rest)
	if err != nil {
		return nil, err
	}
	if uint64(len(costs)) != 8*n {
		return nil, fmt.Errorf("%w: plane cost frame holds %d bytes, want %d", ErrCorrupt, len(costs), 8*n)
	}
	p := &Plane{
		Level: m.Level, Lo: m.Lo, Hi: m.Hi,
		FrozenSum: m.FrozenSum, WeightSum: m.WeightSum,
		C: make([]uint64, n),
	}
	for i := range p.C {
		p.C[i] = binary.LittleEndian.Uint64(costs[8*i:])
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after plane", ErrCorrupt, len(rest))
	}
	return p, nil
}
