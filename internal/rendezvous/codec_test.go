package rendezvous

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// encodeUnchecked is AppendMsg without the mask check: what a sender
// that ignores the kinds table would put on the wire.
func encodeUnchecked(m *Msg) []byte {
	set := presence(m)
	b := binary.BigEndian.AppendUint64([]byte{Magic, byte(m.Kind)}, m.ID)
	w := wire{b: binary.BigEndian.AppendUint32(b, set)}
	w.fields(m, set)
	return w.b
}

// carrying is a message of kind k with exactly the fields of mask set,
// whatever k's row of the table says.
func carrying(k Kind, mask uint32, rng *rand.Rand) *Msg {
	for {
		m := randMsg(rng)
		if presence(m) != fService<<1-1 {
			continue // randMsg left something zero or empty
		}
		m.Kind = k
		return restrict(m, mask)
	}
}

// FuzzDecode: whatever the bytes, Decode neither panics nor reads past
// them, and what it accepts is exactly what Encode writes. The corpus
// starts from one full message of every kind; plain `go test` runs it.
func FuzzDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for k := KindJoin; k.valid(); k++ {
		f.Add(Encode(carrying(k, kinds[k].fields, rng)))
	}
	f.Add([]byte{Magic})
	f.Add([]byte("{\"kind\":\"join\"}"))
	var reused Decoder
	f.Fuzz(func(t *testing.T, b []byte) {
		b = b[:len(b):len(b)] // a read past the input is a slice past its capacity: a panic
		for _, decode := range []func([]byte) (*Msg, error){Decode, reused.Decode} {
			m, err := decode(b)
			if err != nil {
				continue
			}
			if again := Encode(m); !bytes.Equal(again, b) {
				t.Fatalf("accepted % x\nencodes as % x\n%+v", b, again, m)
			}
		}
	})
}

// TestEveryKindRejectsFieldsOutsideItsMask: for each kind and each field
// its row of the table leaves out, a message carrying that one extra
// field is refused by the decoder, and by the encoder with a panic.
func TestEveryKindRejectsFieldsOutsideItsMask(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for k := KindJoin; k.valid(); k++ {
		if _, err := Decode(Encode(carrying(k, kinds[k].fields, rng))); err != nil {
			t.Fatalf("%v with its own fields: %v", k, err)
		}
		for bit := fName; bit <= fService; bit <<= 1 {
			if kinds[k].fields&bit != 0 {
				continue
			}
			m := carrying(k, kinds[k].fields|bit, rng)
			if _, err := Decode(encodeUnchecked(m)); err == nil {
				t.Errorf("%v accepted field %#x outside its mask %#x", k, bit, kinds[k].fields)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("Encode let a %v carry field %#x", k, bit)
					}
				}()
				Encode(m)
			}()
		}
	}
	pulse := Encode(&Msg{Kind: KindPulse, Name: "a"})
	for _, b := range [][]byte{
		nil, {Magic}, pulse[:headerLen-1], // short of a header
		append([]byte{Magic, 0}, pulse[2:]...),                // kind 0
		append([]byte{Magic, byte(len(kinds))}, pulse[2:]...), // kind past the table
		append([]byte{'{'}, pulse[1:]...),                     // not the magic
		append(pulse[:len(pulse):len(pulse)], 0),              // trailing byte
		pulse[:len(pulse)-1],                                  // overrun
		append(pulse[:headerLen:headerLen], 0),                // name present but empty
		append(pulse[:headerLen:headerLen], 0x82, 0x00, 'a'),  // length 1 padded to two bytes
	} {
		if m, err := Decode(b); err == nil {
			t.Errorf("accepted % x as %+v", b, m)
		}
	}
}
