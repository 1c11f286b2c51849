package live

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/refgraph"
)

// FuzzWALReplay throws arbitrary file bytes at openWAL. The invariant: the
// log either fails to open with a typed ErrCorruptWAL, or opens with its
// torn tail truncated — the file then ends exactly at the replayed prefix,
// and a second replay returns the same mutations. Never a panic, and never
// an allocation sized by a corrupt count. With reframe set, the input's
// magic and record checksums are rewritten first, so fuzzed payloads get
// past the CRC check and reach the batch and mutation decoders.
func FuzzWALReplay(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.wal")
	w, err := createWAL(path)
	if err != nil {
		f.Fatal(err)
	}
	for _, batch := range [][]Mutation{
		{{Op: OpAddRef, Labels: []LabelP{{Label: "l0", P: 0.7}, {Label: "l1", P: 0.3}}}},
		{{Op: OpAddEdge, A: 3, B: 7, P: 0.8}, {Op: OpSetLinkage, Members: []refgraph.RefID{3, 4}, P: 0.9}},
		{{Op: OpAddEdge, A: 1, B: 2, P: 0.5, CPT: []float64{0.1, 0.9}}},
	} {
		if err := w.append(batch); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw, false)
	f.Add(raw[:0], false)
	f.Add(raw[:len(walMagic)], false)
	f.Add(raw[:len(raw)-3], false)
	for _, off := range []int{0, 4, 8, 12, 20, len(raw) - 1} {
		b := append([]byte(nil), raw...)
		b[off] ^= 0xff
		f.Add(b, false)
		f.Add(b, true)
	}
	// A checksummed batch claiming 2^32-1 mutations in four bytes.
	f.Add(append([]byte(walMagic), 0, 0, 0, 0, 4, 0, 0, 0, 0xff, 0xff, 0xff, 0xff), true)

	f.Fuzz(func(t *testing.T, data []byte, reframe bool) {
		if reframe {
			data = reframeWAL(data)
		}
		path := filepath.Join(t.TempDir(), "wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, muts, err := openWAL(path)
		if err != nil {
			if !errors.Is(err, ErrCorruptWAL) {
				t.Fatalf("openWAL failed with untyped error: %v", err)
			}
			return
		}
		size := w.size
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != size {
			t.Fatalf("replayed prefix ends at %d, file is %d bytes", size, st.Size())
		}
		w2, again, err := openWAL(path)
		if err != nil {
			t.Fatalf("reopen after replay: %v", err)
		}
		defer w2.Close()
		if w2.size != size || !bytes.Equal(encodeAll(t, muts), encodeAll(t, again)) {
			t.Fatalf("second replay differs: %d mutations up to %d, then %d up to %d", len(muts), size, len(again), w2.size)
		}
	})
}

// reframeWAL gives data a valid magic and recomputes the checksum of every
// record whose length fits the remaining bytes.
func reframeWAL(data []byte) []byte {
	data = append([]byte(nil), data...)
	if len(data) < len(walMagic) {
		return data
	}
	copy(data, walMagic)
	for off := len(walMagic); off+walRecHeader <= len(data); {
		plen := int(binary.LittleEndian.Uint32(data[off+4:]))
		end := off + walRecHeader + plen
		if plen == 0 || end > len(data) {
			break
		}
		binary.LittleEndian.PutUint32(data[off:], crc32.ChecksumIEEE(data[off+walRecHeader:end]))
		off = end
	}
	return data
}

// encodeAll serializes mutations for comparison (bitwise, so NaN
// probabilities compare equal to themselves).
func encodeAll(t *testing.T, ms []Mutation) []byte {
	var out []byte
	for i := range ms {
		b, err := ms[i].encode()
		if err != nil {
			t.Fatalf("replayed mutation %d does not re-encode: %v", i, err)
		}
		out = append(out, b...)
	}
	return out
}
