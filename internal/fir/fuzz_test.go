package fir

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// reseal replaces the trailing CRC-32 of an encoded program with the
// checksum of everything before it, so a mutated body reaches the
// structural decoder instead of stopping at the checksum.
func reseal(data []byte) []byte {
	if len(data) < 4 {
		return data
	}
	body := bytes.Clone(data[:len(data)-4])
	return binary.BigEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// FuzzDecodeProgram feeds arbitrary bytes, as they arrive and with their
// checksum resealed, to DecodeProgram. Programs reach it from migration
// peers and, since checkpoints name their code by hash, from code objects
// in the shared store: a malformed program must come back as an error,
// never a panic or an allocation sized off an unchecked count. An
// accepted program re-encodes canonically (encode, decode, encode gives
// the same bytes), and the checker and the label scan accept or refuse
// it without panicking.
func FuzzDecodeProgram(f *testing.F) {
	for _, p := range []*Program{loopProgram(), specProgram()} {
		data := EncodeProgram(p)
		f.Add(data)
		f.Add(data[:len(data)/2])
		flipped := bytes.Clone(data)
		flipped[len(flipped)/3] ^= 0x20
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add(reseal([]byte(firMagic + "\x01")))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, reseal(data)} {
			p, err := DecodeProgram(in)
			if err != nil {
				continue
			}
			enc := EncodeProgram(p)
			q, err := DecodeProgram(enc)
			if err != nil {
				t.Fatalf("re-decode of an accepted program failed: %v", err)
			}
			if !bytes.Equal(EncodeProgram(q), enc) {
				t.Fatal("an accepted program does not re-encode canonically")
			}
			_ = Check(p, testExterns)
			_, _ = MigrateLabels(p)
		}
	})
}
