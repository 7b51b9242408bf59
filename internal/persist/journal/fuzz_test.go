package journal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// walFile is a journal header followed by the given records, each
// framed with a correct length and CRC.
func walFile(payloads ...string) []byte {
	out := []byte(walMagic)
	out = binary.LittleEndian.AppendUint16(out, walVersion)
	for _, p := range payloads {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(p)))
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum([]byte(p), crcTable))
		out = append(out, p...)
	}
	return out
}

func sameRecords(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// FuzzOpen hardens WAL replay, which every -state resume goes through,
// against arbitrary file contents. Open must never panic and must
// recover the records the read-only ReadRecords sees. The file it
// leaves must replay with no torn bytes, a record appended after Open
// must replay after the old ones, and OpenCheckpoint must open the
// result.
func FuzzOpen(f *testing.F) {
	two := walFile(`{"name":"a","data":1}`, `{"name":"b"}`)
	flipped := bytes.Clone(two)
	flipped[len(flipped)-1] ^= 0x01
	torn := walFile(`{"name":"a"}`, "a payload cut short")
	f.Add([]byte{})
	f.Add(walFile())
	f.Add(two)
	f.Add(append(bytes.Clone(two), 0x05, 0x00))                          // torn length prefix
	f.Add(torn[:len(torn)-5])                                            // torn payload
	f.Add(flipped)                                                       // flipped CRC
	f.Add(append([]byte("sraa-art\x01\x00"), two[headerLen:]...))        // foreign header
	f.Add(append(walFile("x"), 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 'y')) // length over maxRecord
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		seen, err := ReadRecords(path)
		if err != nil {
			t.Fatal(err)
		}
		w, rec, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRecords(rec.Records, seen.Records) {
			t.Fatalf("Open recovered %q, ReadRecords %q", rec.Records, seen.Records)
		}
		healed, err := ReadRecords(path)
		if err != nil {
			t.Fatal(err)
		}
		if healed.TornBytes != 0 || !sameRecords(healed.Records, rec.Records) {
			t.Fatalf("after Open: %d torn bytes, records %q, want 0 and %q",
				healed.TornBytes, healed.Records, rec.Records)
		}
		if err := w.Append([]byte("appended")); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := ReadRecords(path)
		if err != nil {
			t.Fatal(err)
		}
		want := append(rec.Records, []byte("appended"))
		if again.TornBytes != 0 || !sameRecords(again.Records, want) {
			t.Fatalf("after append: %d torn bytes, records %q, want 0 and %q",
				again.TornBytes, again.Records, want)
		}
		c, err := OpenCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
	})
}
