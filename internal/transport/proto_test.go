package transport

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/rt"
)

// controlCodecs pairs each control-frame decoder with its encoder, keyed
// by frame type: decode b and return the decoded fields together with
// the frame the encoder builds from them.
var controlCodecs = map[byte]func(b []byte) (fields any, re []byte, err error){
	fHello: func(b []byte) (any, []byte, error) {
		node, resurrect, err := decodeHello(b)
		return []any{node, resurrect}, encodeHello(node, resurrect), err
	},
	fWelcome: func(b []byte) (any, []byte, error) {
		epoch, port, err := decodeWelcome(b)
		return []any{epoch, port}, encodeWelcome(epoch, port), err
	},
	fRoll: func(b []byte) (any, []byte, error) {
		epoch, err := decodeInt(b)
		return epoch, encodeInt(fRoll, epoch), err
	},
	fOwn: func(b []byte) (any, []byte, error) {
		node, err := decodeInt(b)
		return node, encodeInt(fOwn, node), err
	},
	fGC: func(b []byte) (any, []byte, error) {
		node, below, err := decodeGC(b)
		return []any{node, below}, encodeGC(node, below), err
	},
	fAck: func(b []byte) (any, []byte, error) {
		id, errStr, err := decodeAck(b)
		return []any{id, errStr}, encodeAck(id, errStr), err
	},
	fExit: func(b []byte) (any, []byte, error) {
		res, err := decodeExit(b)
		return res, encodeExit(res), err
	},
	fMigrate: func(b []byte) (any, []byte, error) {
		id, src, dst, seen, image, err := decodeMigrate(b)
		return []any{id, src, dst, seen, image}, encodeMigrate(id, src, dst, seen, image), err
	},
}

// FuzzControlFrame: no input makes a control-frame decoder panic; every
// seed an encoder built decodes to the fields it was built from (the
// re-encoded frame is byte for byte the seed); and whatever any decoder
// accepts re-encodes to a frame that decodes to the same fields.
func FuzzControlFrame(f *testing.F) {
	seeds := [][]byte{
		encodeHello(3, false),
		encodeHello(-1, true),
		encodeWelcome(0, 0),
		encodeWelcome(math.MaxInt64, 0xffff),
		encodeInt(fRoll, 7),
		encodeInt(fOwn, 5),
		encodeGC(2, math.MinInt64),
		encodeAck(9, ""),
		encodeAck(math.MaxUint32, "transport: node 4 is failed"),
		encodeExit(Result{Node: 1, Status: rt.StatusHalted, Halt: -46, Steps: 1 << 40, Rolls: 3, Err: "boom"}),
		encodeExit(Result{}),
		encodeMigrate(1, 0, 5, 12, []byte("image")),
		encodeMigrate(0, -1, -2, -3, nil),
	}
	for _, seed := range seeds {
		_, re, err := controlCodecs[seed[0]](seed)
		if err != nil || !bytes.Equal(re, seed) {
			f.Fatalf("seed %q round-tripped as %q (%v)", seed, re, err)
		}
		for cut := 0; cut < len(seed); cut += 3 {
			f.Add(seed[:cut])
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for typ, codec := range controlCodecs {
			fields, re, err := codec(b)
			if err != nil {
				continue
			}
			again, _, err := codec(re)
			if err != nil || !reflect.DeepEqual(again, fields) {
				t.Fatalf("%q: %v re-encoded as %q, which decodes to %v (%v)", typ, fields, re, again, err)
			}
		}
	})
}
