package checkpoint

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math/bits"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

func testProblem() *core.Problem {
	return &core.Problem{
		K:       4,
		Weights: []uint64{8, 4, 2, 1},
		Actions: []core.Action{
			{Name: "t01", Set: core.SetOf(0, 1), Cost: 2},
			{Name: "r0", Set: core.SetOf(0), Cost: 3, Treatment: true},
			{Name: "r1", Set: core.SetOf(1), Cost: 3, Treatment: true},
			{Name: "all", Set: core.Universe(4), Cost: 9, Treatment: true},
		},
	}
}

// solveTo runs the checkpointed sequential solve and captures the frontier
// written at the requested level.
func solveTo(t *testing.T, p *core.Problem, w *Writer) *core.Solution {
	t.Helper()
	sol, err := core.SolveCheckpointedCtx(context.Background(), p, nil, w)
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

func TestWriterRoundTrip(t *testing.T) {
	p := testProblem()
	hash, err := ProblemHash(p)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	w, err := NewWriter(nil, dir, p, hash, "seq", 0)
	if err != nil {
		t.Fatal(err)
	}
	want := solveTo(t, p, w)
	if w.Levels() != p.K-1 {
		t.Fatalf("wrote %d levels, want %d", w.Levels(), p.K-1)
	}
	snap, err := Load(nil, w.Path())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Engine != "seq" || snap.Hash != hash || snap.Level != p.K-1 {
		t.Fatalf("snapshot meta: %+v", snap)
	}
	if snap.Problem.K != p.K || len(snap.Problem.Actions) != len(p.Actions) {
		t.Fatalf("embedded problem shape: %+v", snap.Problem)
	}
	// Resume from the stored frontier: bit-identical final solution.
	got, err := core.SolveCheckpointedCtx(context.Background(), snap.Problem, snap.Frontier, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost != want.Cost {
		t.Fatalf("resumed cost %d, want %d", got.Cost, want.Cost)
	}
	for s := range want.C {
		if got.C[s] != want.C[s] {
			t.Fatalf("resumed table mismatch at subset %d", s)
		}
	}
	// No temp residue after a clean run; Discard removes the file.
	if _, err := os.Stat(w.Path() + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file left behind: %v", err)
	}
	if err := w.Discard(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(w.Path()); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("Discard left the checkpoint file")
	}
	if err := w.Discard(); err != nil {
		t.Fatalf("second Discard not idempotent: %v", err)
	}
}

// TestCostOnlyFrontier: a frontier is C alone, 8 bytes per frontier subset
// after the meta frame, and any engine's frontier restores the same C.
func TestCostOnlyFrontier(t *testing.T) {
	p := testProblem()
	hash, _ := ProblemHash(p)
	sol, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	data, err := Encode(p, hash, "bvm", 9, 2, sol)
	if err != nil {
		t.Fatal(err)
	}
	meta, rest, err := NextFrame(data[8:])
	if err != nil {
		t.Fatal(err)
	}
	if costs, rest, err := NextFrame(rest); err != nil || len(rest) != 0 || len(costs) != 8*frontierCount(p.K, 2) {
		t.Fatalf("image after meta: %d cost bytes, %d trailing, err %v; want exactly %d cost bytes",
			len(costs), len(rest), err, 8*frontierCount(p.K, 2))
	}
	if len(data) != 8+8+len(meta)+8+8*frontierCount(p.K, 2) {
		t.Fatalf("image is %d bytes", len(data))
	}
	snap, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Width != 9 || snap.Engine != "bvm" {
		t.Fatalf("meta: %+v", snap)
	}
	for s := range sol.C {
		if bits.OnesCount(uint(s)) <= 2 && snap.Frontier.C[s] != sol.C[s] {
			t.Fatalf("restored C[%d] = %d, want %d", s, snap.Frontier.C[s], sol.C[s])
		}
	}
}

// legacyV1 rewrites a current image (checkpoint or plane: both are magic,
// version, meta frame, cost frame) into the version-1 layout, which flagged
// has_choice in the meta and appended an int32 argmin frame.
func legacyV1(t testing.TB, img []byte, choices []int32) []byte {
	t.Helper()
	metaJSON, rest, err := NextFrame(img[8:])
	if err != nil {
		t.Fatal(err)
	}
	costs, _, err := NextFrame(rest)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(metaJSON, &m); err != nil {
		t.Fatal(err)
	}
	m["has_choice"] = true
	if metaJSON, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	var cb []byte
	for _, c := range choices {
		cb = binary.LittleEndian.AppendUint32(cb, uint32(c))
	}
	out := binary.LittleEndian.AppendUint32(append([]byte(nil), img[:4]...), 1)
	return AppendFrame(AppendFrame(AppendFrame(out, metaJSON), costs), cb)
}

// TestDecodeRejectsVersion1: a checkpoint in the old layout — version 1,
// with its choices frame — fails Decode and Load with ErrCorrupt, so a
// restarted server discards it and solves from scratch.
func TestDecodeRejectsVersion1(t *testing.T) {
	p := testProblem()
	hash, _ := ProblemHash(p)
	sol, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	img, err := Encode(p, hash, "seq", 0, 2, sol)
	if err != nil {
		t.Fatal(err)
	}
	kn, err := core.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	var choices []int32
	forEachFrontierSubset(p.K, 2, func(s int) {
		_, ch := kn.Cell(sol.C, core.Set(s))
		choices = append(choices, ch)
	})
	v1 := legacyV1(t, img, choices)
	if snap, err := Decode(v1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decode(v1) err = %v (snap %v), want ErrCorrupt", err, snap)
	}
	path := filepath.Join(t.TempDir(), hash+Ext)
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if snap, err := Load(nil, path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load(v1) err = %v (snap %v), want ErrCorrupt", err, snap)
	}
}

// TestDecodeRejectsDamage flips, truncates, and rewrites a valid image in
// every section and requires Decode to fail with ErrCorrupt — never panic,
// never return a snapshot.
func TestDecodeRejectsDamage(t *testing.T) {
	p := testProblem()
	hash, _ := ProblemHash(p)
	sol, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	data, err := Encode(p, hash, "seq", 0, 3, sol)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data); err != nil {
		t.Fatalf("pristine image rejected: %v", err)
	}

	check := func(name string, img []byte) {
		t.Helper()
		snap, err := Decode(img)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v (snap %v), want ErrCorrupt", name, err, snap)
		}
	}
	// Truncation at every prefix boundary of interest (torn writes).
	for _, n := range []int{0, 3, 7, 12, len(data) / 2, len(data) - 1} {
		check("truncate", data[:n])
	}
	// Single-bit rot in every region: magic, version, meta, payload, CRC.
	for _, off := range []int{0, 5, 16, len(data) / 2, len(data) - 2} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x40
		check("bitflip", bad)
	}
	// Trailing garbage.
	check("trailing", append(append([]byte(nil), data...), 0xEE))
	// Hash that does not match the embedded problem.
	mismatch, err := Encode(p, "00deadbeef", "seq", 0, 3, sol)
	if err != nil {
		t.Fatal(err)
	}
	check("hash-mismatch", mismatch)
}

func TestScan(t *testing.T) {
	p := testProblem()
	hash, _ := ProblemHash(p)
	dir := t.TempDir()
	w, err := NewWriter(nil, dir, p, hash, "parallel", 0)
	if err != nil {
		t.Fatal(err)
	}
	solveTo(t, p, w)
	// Plant a corrupt checkpoint, a stray temp file, and an unrelated file.
	if err := os.WriteFile(filepath.Join(dir, "bad.ckpt"), []byte("TTCKnope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "torn.ckpt.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	snaps, discard, err := Scan(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || snaps[0].Hash != hash || snaps[0].Engine != "parallel" {
		t.Fatalf("snaps: %+v", snaps)
	}
	if len(discard) != 2 {
		t.Fatalf("discard: %v", discard)
	}
	// A missing directory is an empty scan.
	snaps, discard, err = Scan(nil, filepath.Join(dir, "absent"))
	if err != nil || snaps != nil || discard != nil {
		t.Fatalf("missing dir: %v %v %v", snaps, discard, err)
	}
}

func TestScanCtxStopsAtBudget(t *testing.T) {
	p := testProblem()
	hash, err := ProblemHash(p)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	w, err := NewWriter(nil, dir, p, hash, "seq", 0)
	if err != nil {
		t.Fatal(err)
	}
	solveTo(t, p, w)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	snaps, _, err := ScanCtx(ctx, nil, dir)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expired ScanCtx err = %v, want context.Canceled", err)
	}
	if len(snaps) != 0 {
		t.Fatalf("expired ScanCtx still loaded %d snapshots", len(snaps))
	}
	// With budget left the same directory scans normally.
	snaps, discard, err := ScanCtx(context.Background(), nil, dir)
	if err != nil || len(snaps) != 1 || len(discard) != 0 {
		t.Fatalf("live ScanCtx = %d snaps, %d discard, err %v", len(snaps), len(discard), err)
	}
}

func TestFrontierPacking(t *testing.T) {
	if n := frontierCount(4, 0); n != 1 {
		t.Fatalf("frontierCount(4,0) = %d", n)
	}
	if n := frontierCount(4, 4); n != 16 {
		t.Fatalf("frontierCount(4,4) = %d", n)
	}
	seen := map[int]bool{}
	forEachFrontierSubset(5, 3, func(s int) {
		if seen[s] {
			t.Fatalf("subset %d visited twice", s)
		}
		seen[s] = true
	})
	if len(seen) != frontierCount(5, 3) {
		t.Fatalf("visited %d subsets, want %d", len(seen), frontierCount(5, 3))
	}
}

// TestDecodeRejectsTamperedFrontier is the certify-on-resume contract: a
// checkpoint whose framing is pristine — every CRC recomputed over the
// tampered payload — but whose frontier disagrees with the DP recurrence must
// be quarantined, exactly like a torn write. This is the file a machine with
// silently corrupting hardware would produce.
func TestDecodeRejectsTamperedFrontier(t *testing.T) {
	p := testProblem()
	hash, _ := ProblemHash(p)
	sol, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	// Find a frontier cell inside level 3 with a finite cost to perturb.
	var target int
	for s := 1; s < 1<<uint(p.K); s++ {
		if bits.OnesCount(uint(s)) <= 3 && sol.C[s] > 0 && sol.C[s] < core.Inf {
			target = s
			break
		}
	}
	if target == 0 {
		t.Fatal("no finite frontier cell to tamper with")
	}

	encode := func(mutate func(*core.Solution)) []byte {
		t.Helper()
		bad := &core.Solution{C: append([]uint64(nil), sol.C...)}
		mutate(bad)
		data, err := Encode(p, hash, "seq", 0, 3, bad)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	check := func(name string, img []byte) {
		t.Helper()
		snap, err := Decode(img)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v (snap %v), want ErrCorrupt", name, err, snap)
		}
	}

	check("cost-off-by-one", encode(func(b *core.Solution) { b.C[target]++ }))
	check("cost-zeroed", encode(func(b *core.Solution) { b.C[target] = 0 }))
	check("cost-inf", encode(func(b *core.Solution) { b.C[target] = core.Inf }))

	// Sanity: the untampered image still decodes.
	good, err := Encode(p, hash, "seq", 0, 3, sol)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(good); err != nil {
		t.Fatalf("pristine image rejected: %v", err)
	}
}
