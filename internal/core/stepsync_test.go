package core

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// TestStepPayloadLayout pins the wire layout of the step exchange:
// edges, originals, k, then (vertex, delta) records ascending by vertex,
// zero deltas omitted.
func TestStepPayloadLayout(t *testing.T) {
	delta := make([]int32, 10)
	delta[2], delta[5], delta[9] = -3, 0, 7
	got := appendStepPayload(nil, 1234, 56, []int32{2, 5, 9}, delta)
	want := binary.LittleEndian.AppendUint64(nil, 1234)
	want = binary.LittleEndian.AppendUint64(want, 56)
	for _, x := range []int32{2, 2, -3, 9, 7} { // k, then (vertex, delta) pairs
		want = binary.LittleEndian.AppendUint32(want, uint32(x))
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("payload\n got %x\nwant %x", got, want)
	}
	if got := appendStepPayload(nil, 8, 3, nil, nil); len(got) != stepHeader {
		t.Fatalf("delta-free payload is %d bytes, want the %d-byte header", len(got), stepHeader)
	}
}

// TestStepPayloadRejects: the decoder refuses everything the encoder
// cannot produce, so a hostile or corrupted peer payload cannot index
// the dense delta vector out of range.
func TestStepPayloadRejects(t *testing.T) {
	payload := func(k uint32, recs ...int32) []byte {
		b := binary.LittleEndian.AppendUint64(nil, 10)
		b = binary.LittleEndian.AppendUint64(b, 4)
		b = binary.LittleEndian.AppendUint32(b, k)
		for _, r := range recs {
			b = binary.LittleEndian.AppendUint32(b, uint32(r))
		}
		return b
	}
	const n = 8
	cases := []struct {
		name string
		pb   []byte
		want string
	}{
		{"truncated", payload(0)[:19], "truncated"},
		{"short", payload(2, 1, 1), "does not match"},
		{"long", payload(0, 1, 1), "does not match"},
		{"huge k", payload(1<<31, 1, 1), "does not match"},
		{"vertex past n", payload(1, n, 1), "outside [0,8)"},
		{"negative vertex", payload(1, -1, 1), "outside [0,8)"},
		{"descending", payload(2, 5, 1, 3, -1), "does not ascend"},
		{"duplicate", payload(2, 3, 1, 3, -1), "does not ascend"},
		{"zero delta", payload(1, 3, 0), "zero delta"},
	}
	for _, tc := range cases {
		if _, err := decodeStepPayload(tc.pb, n); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
	sp, err := decodeStepPayload(payload(2, 0, 1, 7, -2), n)
	if err != nil || sp.edges != 10 || sp.originals != 4 || sp.k() != 2 {
		t.Fatalf("valid payload: %+v, %v", sp, err)
	}
}

// FuzzStepPayload: arbitrary bytes never panic the decoder, whatever is
// accepted satisfies every documented bound, and encoder output
// round-trips exactly.
func FuzzStepPayload(f *testing.F) {
	delta := make([]int32, 40)
	delta[3], delta[17], delta[39] = 2, -1, -4
	f.Add(appendStepPayload(nil, 100, 60, []int32{3, 17, 39}, delta), uint16(40))
	f.Add(appendStepPayload(nil, 7, 0, nil, nil), uint16(0))
	f.Add([]byte{1, 2, 3}, uint16(5))
	f.Fuzz(func(t *testing.T, data []byte, nRaw uint16) {
		n := int(nRaw)
		// Arbitrary bytes: no panic, and an accepted payload is sane.
		if sp, err := decodeStepPayload(data, n); err == nil {
			prev := -1
			for i := 0; i < sp.k(); i++ {
				v, d := sp.delta(i)
				if int(v) <= prev || int(v) >= n || d == 0 {
					t.Fatalf("accepted delta %d = (%d, %d) for n=%d after vertex %d", i, v, d, n, prev)
				}
				prev = int(v)
			}
		}
		// Encoder output: read the bytes as deltas for vertices
		// ascending from 0, encode, decode, compare.
		if n == 0 {
			return
		}
		dense := make([]int32, n)
		var verts []int32
		for i := 0; i+4 <= len(data) && len(verts) < n; i += 4 {
			v := int32(len(verts))
			dense[v] = int32(binary.LittleEndian.Uint32(data[i:]))
			verts = append(verts, v)
		}
		edges, origs := int64(len(data)), int64(n)
		sp, err := decodeStepPayload(appendStepPayload(nil, edges, origs, verts, dense), n)
		if err != nil {
			t.Fatalf("encoder output rejected: %v", err)
		}
		if sp.edges != edges || sp.originals != origs {
			t.Fatalf("counts (%d, %d) round-tripped to (%d, %d)", edges, origs, sp.edges, sp.originals)
		}
		got := make([]int32, n)
		for i := 0; i < sp.k(); i++ {
			v, d := sp.delta(i)
			got[v] = d
		}
		for v := range dense {
			if got[v] != dense[v] {
				t.Fatalf("vertex %d: delta %d round-tripped to %d", v, dense[v], got[v])
			}
		}
	})
}
