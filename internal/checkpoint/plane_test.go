package checkpoint

import (
	"bytes"
	"context"
	"errors"
	"testing"
)

// testPlane is a small but non-trivial slice: mixed finite/Inf costs and
// nonzero checksums.
func testPlane() *Plane {
	return &Plane{
		Level:     3,
		Lo:        7,
		Hi:        12,
		FrozenSum: 0xdeadbeefcafef00d,
		WeightSum: 0x0123456789abcdef,
		C:         []uint64{41, ^uint64(0), 0, 7, 1 << 60},
	}
}

// testPlaneV1 is testPlane in the version-1 wire layout, which also framed
// one argmin per cell.
func testPlaneV1(t testing.TB) []byte {
	img, err := EncodePlane(testPlane())
	if err != nil {
		t.Fatal(err)
	}
	return legacyV1(t, img, []int32{0, -1, 2, 1, 3})
}

func planesEqual(a, b *Plane) bool {
	if a.Level != b.Level || a.Lo != b.Lo || a.Hi != b.Hi ||
		a.FrozenSum != b.FrozenSum || a.WeightSum != b.WeightSum ||
		len(a.C) != len(b.C) {
		return false
	}
	for i := range a.C {
		if a.C[i] != b.C[i] {
			return false
		}
	}
	return true
}

func TestPlaneRoundTrip(t *testing.T) {
	want := testPlane()
	img, err := EncodePlane(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePlane(img)
	if err != nil {
		t.Fatal(err)
	}
	if !planesEqual(want, got) {
		t.Fatalf("round trip changed the plane: %+v -> %+v", want, got)
	}
	// 8 bytes per cell on the wire: the image is the header, the meta
	// frame, and one cost frame of exactly 8·(Hi−Lo) bytes.
	meta, rest, err := NextFrame(img[8:])
	if err != nil {
		t.Fatal(err)
	}
	costs, rest, err := NextFrame(rest)
	if err != nil || len(rest) != 0 {
		t.Fatalf("image is not exactly meta + costs: %d trailing bytes, err %v", len(rest), err)
	}
	if len(costs) != 8*len(want.C) || len(img) != 8+8+len(meta)+8+len(costs) {
		t.Fatalf("cost frame %d bytes for %d cells", len(costs), len(want.C))
	}
}

// TestDecodePlaneRejectsVersion1: a plane in the old layout — version 1,
// with its argmin frame — is refused like any other incompatible image.
func TestDecodePlaneRejectsVersion1(t *testing.T) {
	if p, err := DecodePlane(testPlaneV1(t)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("version-1 plane: err = %v (plane %v), want ErrCorrupt", err, p)
	}
}

func TestEncodePlaneRejectsBadShape(t *testing.T) {
	cases := map[string]func(*Plane){
		"negative level":  func(p *Plane) { p.Level = -1 },
		"inverted range":  func(p *Plane) { p.Lo, p.Hi = p.Hi, p.Lo },
		"short costs":     func(p *Plane) { p.C = p.C[:2] },
		"oversized range": func(p *Plane) { p.Lo, p.Hi = 0, MaxPlaneCells+1 },
	}
	for name, mutate := range cases {
		p := testPlane()
		mutate(p)
		if _, err := EncodePlane(p); err == nil {
			t.Errorf("%s: encode accepted a malformed plane", name)
		}
	}
}

// TestDecodePlaneRejectsDamage drives the transport-integrity contract
// deterministically: every truncation, every single bit flip, and frame
// duplication must either fail with ErrCorrupt or decode to exactly the
// original values. A wrong frontier is the one forbidden outcome.
func TestDecodePlaneRejectsDamage(t *testing.T) {
	want := testPlane()
	img, err := EncodePlane(want)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, data []byte) {
		t.Helper()
		got, err := DecodePlane(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: error does not wrap ErrCorrupt: %v", what, err)
			}
			return
		}
		if !planesEqual(want, got) {
			t.Fatalf("%s: decoded a DIFFERENT plane without error", what)
		}
	}
	for n := 0; n < len(img); n++ {
		check("truncation", img[:n])
	}
	for i := 0; i < len(img); i++ {
		for b := 0; b < 8; b++ {
			flipped := append([]byte(nil), img...)
			flipped[i] ^= 1 << b
			check("bit flip", flipped)
		}
	}
	// A duplicated image (or any appended frame) is trailing garbage.
	check("duplicated image", append(append([]byte(nil), img...), img...))
	check("appended frame", AppendFrame(append([]byte(nil), img...), []byte("extra")))
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

// FuzzDecodePlane asserts the decode contract over arbitrary input: any
// error wraps ErrCorrupt, and anything accepted survives a re-encode
// round trip unchanged.
func FuzzDecodePlane(f *testing.F) {
	img, err := EncodePlane(testPlane())
	if err != nil {
		f.Fatal(err)
	}
	for _, img := range [][]byte{img, testPlaneV1(f)} {
		f.Add(img)
		f.Add(img[:len(img)/2])
		f.Add(append(append([]byte(nil), img...), img...))
	}
	f.Add([]byte("TTPL"))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePlane(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		img, err := EncodePlane(p)
		if err != nil {
			t.Fatalf("accepted plane does not re-encode: %v", err)
		}
		q, err := DecodePlane(img)
		if err != nil || !planesEqual(p, q) {
			t.Fatalf("re-encode round trip diverged: %v", err)
		}
	})
}

// FuzzDecodePlaneBitFlip is the targeted half of the contract: corrupt one
// known-good image at a fuzzer-chosen bit and demand ErrCorrupt or the
// exact original — never a third outcome.
func FuzzDecodePlaneBitFlip(f *testing.F) {
	want := testPlane()
	img, err := EncodePlane(want)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint(0), uint(0))
	f.Add(uint(len(img)-1), uint(7))
	f.Add(uint(5), uint(3))
	f.Fuzz(func(t *testing.T, pos, bit uint) {
		flipped := append([]byte(nil), img...)
		flipped[pos%uint(len(img))] ^= 1 << (bit % 8)
		got, err := DecodePlane(flipped)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("bit flip error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		if !bytes.Equal(flipped, img) && !planesEqual(want, got) {
			t.Fatalf("bit flip at %d:%d decoded a different plane", pos, bit)
		}
	})
}
