package persist

import (
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"
)

// frame wraps payload in a record header with the current magic and
// version and a correct length and CRC.
func frame(payload []byte) []byte {
	rec := make([]byte, 18+len(payload))
	copy(rec, storeMagic)
	binary.LittleEndian.PutUint16(rec[8:], storeVersion)
	binary.LittleEndian.PutUint32(rec[10:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[14:], crc32.Checksum(payload, crcTable))
	copy(rec[18:], payload)
	return rec
}

// FuzzDecodeRecord hardens the record decoder, which every disk and
// remote hit goes through, against arbitrary bytes. It must never
// panic, and a record it accepts must re-encode through EncodeRecord
// to a record that decodes to the same key and an equal artifact. A
// random mutation almost never keeps the CRC, so each input is also
// decoded as the payload of a correctly framed record, which fuzzes
// the JSON layer behind the checksum.
func FuzzDecodeRecord(f *testing.F) {
	valid, err := EncodeRecord(key(1), testArtifact(1))
	if err != nil {
		f.Fatal(err)
	}
	flipped := append([]byte(nil), valid...)
	flipped[14] ^= 0x01
	version := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint16(version[8:], storeVersion+1)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                                      // truncated
	f.Add(flipped)                                                   // CRC mismatch
	f.Add(version)                                                   // unknown version
	f.Add(frame(nil))                                                // empty payload
	f.Add(frame([]byte(`{"artifact":{"Vars":["%x"],"Sets":[[]]}}`))) // no key
	f.Add(frame([]byte(`{"key":"k","artifact":{"Vars":null,"Sets":[null,[0,1]],"Stats":{"SetSizes":{"01":1}}}}`)))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRecord(t, data)
		if len(data) >= 18 {
			checkRecord(t, frame(data[18:]))
		}
	})
}

func checkRecord(t *testing.T, data []byte) {
	k, a, err := DecodeRecord(data)
	if err != nil {
		return
	}
	again, err := EncodeRecord(k, a)
	if err != nil {
		t.Fatalf("accepted record does not re-encode: %v", err)
	}
	k2, a2, err := DecodeRecord(again)
	if err != nil {
		t.Fatalf("re-encoded record rejected: %v\n%q", err, again)
	}
	if k2 != k || !reflect.DeepEqual(a2, a) {
		t.Fatalf("round trip changed the record:\nkey %q -> %q\n%#v\n%#v", k, k2, a, a2)
	}
}
