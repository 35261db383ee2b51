package dd

import (
	"bytes"
	"errors"
	"testing"

	"weaksim/internal/cnum"
)

func TestSnapshotCodecRoundTrip(t *testing.T) {
	for _, norm := range []Norm{NormLeft, NormL2, NormL2Phase} {
		snap := mustFreeze(t, norm)
		enc := EncodeSnapshot(snap)
		dec, err := DecodeSnapshot(enc)
		if err != nil {
			t.Fatalf("norm %v: decode: %v", norm, err)
		}
		if err := dec.Verify(); err != nil {
			t.Fatalf("norm %v: decoded snapshot fails Verify: %v", norm, err)
		}
		// The decoded snapshot must be observably identical: same header
		// fields, bit-for-bit equal arrays (re-encoding proves all at once).
		if !bytes.Equal(enc, EncodeSnapshot(dec)) {
			t.Fatalf("norm %v: decode/encode is not the identity", norm)
		}
		if dec.Qubits() != snap.Qubits() || dec.Norm() != snap.Norm() ||
			dec.Generic() != snap.Generic() || dec.Len() != snap.Len() ||
			dec.Root() != snap.Root() || dec.RootWeight() != snap.RootWeight() {
			t.Fatalf("norm %v: header fields diverge after round trip", norm)
		}
		for i := int32(0); int(i) < snap.Len(); i++ {
			if dec.At(i) != snap.At(i) || dec.Down(i) != snap.Down(i) || dec.Up(i) != snap.Up(i) {
				t.Fatalf("norm %v: node %d diverges after round trip", norm, i)
			}
		}
	}
}

func TestSnapshotDecodeRejectsBadFraming(t *testing.T) {
	enc := EncodeSnapshot(mustFreeze(t, NormL2))
	cases := map[string][]byte{
		"empty":         nil,
		"short header":  enc[:10],
		"bad magic":     append([]byte("XSNP"), enc[4:]...),
		"bad version":   append(append([]byte{}, enc[:4]...), append([]byte{99, 0}, enc[6:]...)...),
		"truncated":     enc[:len(enc)-1],
		"trailing junk": append(append([]byte{}, enc...), 0),
	}
	for name, data := range cases {
		if _, err := DecodeSnapshot(data); !errors.Is(err, ErrSnapshotEncoding) {
			t.Errorf("%s: err = %v, want ErrSnapshotEncoding", name, err)
		}
	}
}

// TestSnapshotDecodeVersionMismatchTyped: a frame from a different codec
// version is separately detectable (ErrSnapshotVersion) while still counting
// as undecodable here (ErrSnapshotEncoding); other framing damage must NOT
// read as a version mismatch.
func TestSnapshotDecodeVersionMismatchTyped(t *testing.T) {
	enc := EncodeSnapshot(mustFreeze(t, NormL2))
	newer := append([]byte{}, enc...)
	newer[4], newer[5] = 2, 0 // version 2 little-endian
	_, err := DecodeSnapshot(newer)
	if !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("newer version: err = %v, want ErrSnapshotVersion", err)
	}
	if !errors.Is(err, ErrSnapshotEncoding) {
		t.Fatalf("version mismatch must still wrap ErrSnapshotEncoding: %v", err)
	}
	if _, err := DecodeSnapshot(enc[:len(enc)-1]); errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("truncation misread as a version mismatch: %v", err)
	}
}

// FuzzSnapshotDecode: the decoder must never panic, and anything it accepts
// must survive Verify without panicking either (Verify may well fail — the
// fuzzer forges masses — but it must fail with an error).
func FuzzSnapshotDecode(f *testing.F) {
	for _, norm := range []Norm{NormLeft, NormL2, NormL2Phase} {
		m := New(2, WithNormalization(norm))
		h := cnum.New(0.5, 0)
		state, err := m.FromVector([]cnum.Complex{h, h, h, h})
		if err != nil {
			f.Fatal(err)
		}
		snap, err := m.Freeze(state)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(EncodeSnapshot(snap))
	}
	f.Add([]byte(snapMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		_ = s.Verify()
	})
}
