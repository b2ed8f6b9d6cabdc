// Package checkpoint persists level-frontier snapshots of a TT solve so a
// crashed or killed process can resume the O(N·2^K) backward induction
// mid-sweep instead of restarting it. A checkpoint file is self-contained:
// it embeds the canonical instance (instio wire form), the engine that was
// solving it, the canonical instance hash, the level cursor, and the packed
// C frontier — everything a fresh process needs to validate the
// file against the problem it claims to describe and hand the solver a
// core.Frontier.
//
// The format is defensive by construction. Every file starts with a magic
// and a format version; the two sections (JSON meta, costs) are each
// framed as length + payload + CRC32-C, and the file must end exactly
// at the last frame. Load rejects — with an error wrapping ErrCorrupt, never
// a panic — torn writes, truncation, bit rot, version skew, geometry
// mismatches, and files whose embedded problem no longer hashes to the
// recorded hash. Beyond framing, Decode re-derives the whole restored
// frontier from the DP recurrence and rejects any file whose values
// disagree — a CRC-consistent checkpoint written by faulty hardware is
// quarantined on resume instead of seeding a wrong answer.
// Writers publish atomically (temp file + rename with fsync),
// so a crash mid-write leaves either the previous complete checkpoint or a
// stray .tmp that Scan reports for deletion.
package checkpoint

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math/bits"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/instio"
)

// Version is the on-disk format version; Load rejects any other. Version 2
// carries C only (8 bytes per subset); version 1 also carried an argmin
// frame, which every engine now recomputes.
const Version = 2

// Ext is the checkpoint file extension; Scan considers only these files.
const Ext = ".ckpt"

// tmpExt marks in-progress writes awaiting rename.
const tmpExt = ".tmp"

var magic = [4]byte{'T', 'T', 'C', 'K'}

// ErrCorrupt tags every validation failure of a checkpoint file: CRC or
// framing damage, version or magic mismatch, impossible geometry, or an
// instance hash that does not match the embedded problem. Callers discard
// such files and restart the solve from scratch.
var ErrCorrupt = errors.New("checkpoint: corrupt or incompatible file")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// meta is the JSON header frame.
type meta struct {
	Engine  string          `json:"engine"`
	Hash    string          `json:"hash"`
	K       int             `json:"k"`
	Actions int             `json:"actions"`
	Level   int             `json:"level"`
	Width   int             `json:"width,omitempty"` // bvm word width; 0 otherwise
	Problem json.RawMessage `json:"problem"`         // instio wire form
}

// Snapshot is a loaded, validated checkpoint.
type Snapshot struct {
	Path     string // file it was loaded from ("" for in-memory decodes)
	Engine   string // engine that was running the interrupted solve
	Hash     string // canonical instance hash (matches the embedded problem)
	Level    int    // last completed level barrier
	Width    int    // bvm word width, 0 for word-level engines
	Problem  *core.Problem
	Frontier *core.Frontier // full 2^K cost plane
}

// ProblemHash returns the canonical instance hash: SHA-256 over the instio
// wire form. The caller passes an already order-normalized problem (see
// serve.Canonicalize); hashing the wire bytes ties the key to the exact
// format clients speak and checkpoint files embed.
func ProblemHash(p *core.Problem) (string, error) {
	var buf bytes.Buffer
	if err := instio.Write(&buf, p, ""); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// frontierCount returns how many subsets the packed frontier holds: all
// subsets of popcount <= level.
func frontierCount(k, level int) int {
	n := 0
	for l := 0; l <= level; l++ {
		c := 1
		for i := 0; i < l; i++ {
			c = c * (k - i) / (i + 1)
		}
		n += c
	}
	return n
}

// forEachFrontierSubset visits every subset of popcount <= level in (level,
// Gosper) order — the packing order of the cost frame.
func forEachFrontierSubset(k, level int, visit func(s int)) {
	visit(0)
	limit := uint32(1) << uint(k)
	for l := 1; l <= level; l++ {
		v := uint32(1)<<uint(l) - 1
		for v < limit {
			visit(int(v))
			c := v & -v
			r := v + c
			v = (r^v)>>2/c | r
		}
	}
}

// AppendFrame appends one length+payload+CRC32-C frame to dst — the
// framing unit of every checkpoint section.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
}

// NextFrame slices one frame off data, verifying length and CRC. Every
// defect yields an error wrapping ErrCorrupt.
func NextFrame(data []byte) (payload, rest []byte, err error) {
	if len(data) < 8 {
		return nil, nil, fmt.Errorf("%w: truncated frame header", ErrCorrupt)
	}
	n := binary.LittleEndian.Uint32(data)
	if uint64(len(data)) < 8+uint64(n) {
		return nil, nil, fmt.Errorf("%w: frame of %d bytes truncated", ErrCorrupt, n)
	}
	payload = data[4 : 4+n]
	sum := binary.LittleEndian.Uint32(data[4+n:])
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, nil, fmt.Errorf("%w: frame CRC mismatch", ErrCorrupt)
	}
	return payload, data[8+n:], nil
}

// Encode serializes one level frontier: the C values of every subset of
// popcount <= level. width records the bvm word width (0 otherwise). The
// problem is embedded in instio wire form so the file is self-contained.
func Encode(p *core.Problem, hash, engine string, width, level int, sol *core.Solution) ([]byte, error) {
	if level < 0 || level > p.K {
		return nil, fmt.Errorf("checkpoint: level %d outside [0,%d]", level, p.K)
	}
	size := 1 << uint(p.K)
	if len(sol.C) != size {
		return nil, fmt.Errorf("checkpoint: %d costs for a %d-object universe", len(sol.C), p.K)
	}
	var pbuf bytes.Buffer
	if err := instio.Write(&pbuf, p, ""); err != nil {
		return nil, err
	}
	m := meta{
		Engine:  engine,
		Hash:    hash,
		K:       p.K,
		Actions: len(p.Actions),
		Level:   level,
		Width:   width,
		Problem: json.RawMessage(pbuf.Bytes()),
	}
	metaJSON, err := json.Marshal(&m)
	if err != nil {
		return nil, err
	}
	cnt := frontierCount(p.K, level)
	costs := make([]byte, 0, 8*cnt)
	forEachFrontierSubset(p.K, level, func(s int) {
		costs = binary.LittleEndian.AppendUint64(costs, sol.C[s])
	})
	out := append([]byte(nil), magic[:]...)
	out = binary.LittleEndian.AppendUint32(out, Version)
	out = AppendFrame(out, metaJSON)
	return AppendFrame(out, costs), nil
}

// Decode parses and validates a checkpoint image. Every defect — framing,
// CRC, version, geometry, or a recorded hash that does not match the
// embedded problem — yields an error wrapping ErrCorrupt.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < 8 || !bytes.Equal(data[:4], magic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != Version {
		return nil, fmt.Errorf("%w: format version %d, want %d", ErrCorrupt, v, Version)
	}
	metaJSON, rest, err := NextFrame(data[8:])
	if err != nil {
		return nil, err
	}
	var m meta
	if err := json.Unmarshal(metaJSON, &m); err != nil {
		return nil, fmt.Errorf("%w: meta: %v", ErrCorrupt, err)
	}
	if m.K < 1 || m.K > core.MaxK || m.Level < 0 || m.Level > m.K {
		return nil, fmt.Errorf("%w: geometry k=%d level=%d", ErrCorrupt, m.K, m.Level)
	}
	p, err := instio.Read(bytes.NewReader(m.Problem))
	if err != nil {
		return nil, fmt.Errorf("%w: embedded problem: %v", ErrCorrupt, err)
	}
	if p.K != m.K || len(p.Actions) != m.Actions {
		return nil, fmt.Errorf("%w: embedded problem shape (%d objects, %d actions) contradicts meta (%d, %d)",
			ErrCorrupt, p.K, len(p.Actions), m.K, m.Actions)
	}
	hash, err := ProblemHash(p)
	if err != nil {
		return nil, err
	}
	if hash != m.Hash {
		return nil, fmt.Errorf("%w: instance hash mismatch (recorded %.12s, embedded problem hashes to %.12s)",
			ErrCorrupt, m.Hash, hash)
	}
	cnt := frontierCount(m.K, m.Level)
	costs, rest, err := NextFrame(rest)
	if err != nil {
		return nil, err
	}
	if len(costs) != 8*cnt {
		return nil, fmt.Errorf("%w: cost frame holds %d bytes, want %d", ErrCorrupt, len(costs), 8*cnt)
	}
	size := 1 << uint(m.K)
	f := &core.Frontier{Level: m.Level, C: make([]uint64, size)}
	i := 0
	forEachFrontierSubset(m.K, m.Level, func(s int) {
		f.C[s] = binary.LittleEndian.Uint64(costs[8*i:])
		i++
	})
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(rest))
	}
	if f.C[0] != 0 {
		return nil, fmt.Errorf("%w: frontier C(∅) = %d", ErrCorrupt, f.C[0])
	}
	if err := validateFrontier(p, f); err != nil {
		return nil, err
	}
	return &Snapshot{
		Engine:   m.Engine,
		Hash:     m.Hash,
		Level:    m.Level,
		Width:    m.Width,
		Problem:  p,
		Frontier: f,
	}, nil
}

// validateFrontier is the certify-on-resume check: it re-derives every
// frontier cell from the DP recurrence (core.Kernel) and compares it with the
// stored value. The frame CRCs catch bit rot on disk, but a checkpoint
// written by a machine that was already computing garbage is internally
// consistent; without this check a resumed solve would inherit the wrong
// frontier and certify-before-cache would only catch the damage after the
// remaining levels were wasted on it. Every cell's recurrence reads only
// strict subsets, which have strictly smaller popcount and therefore also
// live inside the frontier; checking in increasing numeric order visits
// them first, so each cell is recomputed from values already proven equal
// to the recurrence from C(∅)=0. Cost is O(N·2^K) — the same order as the
// resumed solve itself.
func validateFrontier(p *core.Problem, f *core.Frontier) error {
	kn, err := core.Compile(p)
	if err != nil {
		return fmt.Errorf("%w: embedded problem: %v", ErrCorrupt, err)
	}
	for s := 1; s < len(f.C); s++ {
		if bits.OnesCount(uint(s)) > f.Level {
			continue
		}
		if want, _ := kn.Cell(f.C, core.Set(s)); f.C[s] != want {
			return fmt.Errorf("%w: frontier C(%#x) = %d, recurrence gives %d", ErrCorrupt, s, f.C[s], want)
		}
	}
	return nil
}

// Writer persists one solve's frontier, overwriting the same file at each
// level barrier via an atomic temp-file + rename. It implements
// core.Checkpointer. A Writer is not safe for concurrent use; the engines
// fire checkpoints from the barrier, never concurrently.
type Writer struct {
	fs     FS
	path   string
	engine string
	hash   string
	width  int
	p      *core.Problem
	levels int // checkpoints successfully written
}

// NewWriter prepares a checkpoint writer for one (instance, engine) solve.
// fsys nil selects the real filesystem; width is the bvm word width (0 for
// word-level engines). The directory is created if missing.
func NewWriter(fsys FS, dir string, p *core.Problem, hash, engine string, width int) (*Writer, error) {
	if fsys == nil {
		fsys = OS{}
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, err
	}
	return &Writer{
		fs:     fsys,
		path:   filepath.Join(dir, hash+Ext),
		engine: engine,
		hash:   hash,
		width:  width,
		p:      p,
	}, nil
}

// Path returns the checkpoint file this writer publishes to.
func (w *Writer) Path() string { return w.path }

// Levels returns how many level barriers have been durably recorded.
func (w *Writer) Levels() int { return w.levels }

// CheckpointLevel encodes the frontier through level and atomically replaces
// the checkpoint file.
func (w *Writer) CheckpointLevel(level int, sol *core.Solution) error {
	data, err := Encode(w.p, w.hash, w.engine, w.width, level, sol)
	if err != nil {
		return err
	}
	tmp := w.path + tmpExt
	if err := w.fs.WriteFile(tmp, data); err != nil {
		return err
	}
	if err := w.fs.Rename(tmp, w.path); err != nil {
		return err
	}
	w.levels++
	return nil
}

// Discard removes the checkpoint file (and any stray temp), called when the
// solve completes and the frontier is no longer worth keeping.
func (w *Writer) Discard() error {
	_ = w.fs.Remove(w.path + tmpExt)
	err := w.fs.Remove(w.path)
	if err != nil && errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return err
}

// Load reads and validates one checkpoint file.
func Load(fsys FS, path string) (*Snapshot, error) {
	if fsys == nil {
		fsys = OS{}
	}
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	snap, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	snap.Path = path
	return snap, nil
}

// Scan walks dir for checkpoint files. Valid snapshots are returned;
// unreadable or corrupt .ckpt files and stray .tmp residue land in discard
// (for the caller to delete — Scan itself never removes anything). A missing
// directory is an empty scan, not an error.
func Scan(fsys FS, dir string) (snaps []*Snapshot, discard []string, err error) {
	return scan(nil, fsys, dir)
}

// ScanCtx is Scan bounded by a context: the context is checked before every
// file load (each load re-derives its frontier, so a directory of large
// checkpoints is real work), and on expiry the snapshots validated so far
// are returned along with the context's error. Callers that treat the bound
// as a budget rather than a failure — serve's startup recovery — keep the
// partial results and move on; unscanned files stay on disk for next time.
func ScanCtx(ctx context.Context, fsys FS, dir string) (snaps []*Snapshot, discard []string, err error) {
	return scan(ctx, fsys, dir)
}

func scan(ctx context.Context, fsys FS, dir string) (snaps []*Snapshot, discard []string, err error) {
	if fsys == nil {
		fsys = OS{}
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil, nil
		}
		return nil, nil, err
	}
	for _, name := range names {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return snaps, discard, err
			}
		}
		path := filepath.Join(dir, name)
		switch {
		case strings.HasSuffix(name, tmpExt):
			discard = append(discard, path)
		case strings.HasSuffix(name, Ext):
			snap, err := Load(fsys, path)
			if err != nil {
				discard = append(discard, path)
				continue
			}
			snaps = append(snaps, snap)
		}
	}
	return snaps, discard, nil
}
