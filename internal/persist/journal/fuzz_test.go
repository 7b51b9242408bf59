package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
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

// readLeaseSeeds are FuzzReadLease's checked-in seeds, each with the
// outcome TestReadLeaseSeeds pins: the record readLease accepts, or
// reject for damage.
var readLeaseSeeds = []struct {
	name, in string
	reject   bool
	want     leaseRecord
}{
	{name: "valid record", in: `{"shard":3,"owner":"w1","epoch":2,"expires_unix_ms":1700000000000}`,
		want: leaseRecord{Shard: 3, Owner: "w1", Epoch: 2, Expires: 1700000000000}},
	{name: "empty object", in: `{}`, reject: true},
	{name: "empty owner", in: `{"shard":0,"owner":"","epoch":1}`, reject: true},
	{name: "epoch 0", in: `{"shard":0,"owner":"w1","epoch":0}`, reject: true},
	{name: "negative epoch", in: `{"shard":0,"owner":"w1","epoch":-4}`, reject: true},
	{name: "truncated JSON", in: `{"shard":0,"owner":"w1","ep`, reject: true},
	{name: "trailing data", in: `{"owner":"w1","epoch":1} {"owner":"w2","epoch":2}`, reject: true},
	// encoding/json keeps the last of duplicate keys.
	{name: "duplicate keys", in: `{"owner":"w1","epoch":1,"owner":"w2"}`,
		want: leaseRecord{Owner: "w2", Epoch: 1}},
	{name: "overflowing epoch", in: `{"owner":"w1","epoch":99999999999999999999}`, reject: true},
}

// TestReadLeaseSeeds pins each seed's outcome, so a change to what
// readLease accepts shows here and not only as a fuzz finding.
func TestReadLeaseSeeds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.lease")
	for _, tc := range readLeaseSeeds {
		if err := os.WriteFile(path, []byte(tc.in), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := readLease(path)
		if (err != nil) != tc.reject {
			t.Errorf("%s: readLease(%s) error %v, want reject %v", tc.name, tc.in, err, tc.reject)
			continue
		}
		if err == nil && got != tc.want {
			t.Errorf("%s: readLease(%s) = %+v, want %+v", tc.name, tc.in, got, tc.want)
		}
	}
}

// FuzzReadLease feeds readLease arbitrary lease files. It must never
// panic; an accepted record has an owner and an epoch of at least 1,
// and marshals into a file that reads back to it.
func FuzzReadLease(f *testing.F) {
	for _, tc := range readLeaseSeeds {
		f.Add([]byte(tc.in))
	}
	path := filepath.Join(f.TempDir(), "shard.lease")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := readLease(path)
		if err != nil {
			return
		}
		if rec.Owner == "" || rec.Epoch < 1 {
			t.Fatalf("accepted %q as %+v: no owner or epoch below 1", data, rec)
		}
		wire, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("accepted %q as %+v, which does not marshal: %v", data, rec, err)
		}
		if err := os.WriteFile(path, wire, 0o644); err != nil {
			t.Fatal(err)
		}
		back, err := readLease(path)
		if err != nil || back != rec {
			t.Fatalf("accepted %q as %+v, but its wire form %s reads back as %+v, %v", data, rec, wire, back, err)
		}
	})
}
