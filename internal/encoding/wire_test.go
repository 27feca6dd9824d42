package encoding

import (
	"bytes"
	"testing"

	"versionstamp/internal/core"
)

// wireStamps builds a few structurally different stamps.
func wireStamps() []core.Stamp {
	seed := core.Seed().Update()
	l, r := seed.Fork()
	l = l.Update()
	j, _ := core.Join(l, r)
	return []core.Stamp{core.Seed(), seed, l, r, j.Update()}
}

func TestDigestRoundTrip(t *testing.T) {
	var buf []byte
	digests := []Digest{}
	for i, s := range wireStamps() {
		d := Digest{Key: string(rune('a'+i)) + "-key", Stamp: s}
		digests = append(digests, d)
		buf = AppendDigest(buf, d)
	}
	for _, want := range digests {
		got, used, err := DecodeDigest(buf)
		if err != nil {
			t.Fatalf("DecodeDigest(%q): %v", want.Key, err)
		}
		buf = buf[used:]
		if got.Key != want.Key || !got.Stamp.Equal(want.Stamp) {
			t.Errorf("digest %q: got %q %v", want.Key, got.Key, got.Stamp)
		}
	}
	if len(buf) != 0 {
		t.Errorf("%d trailing bytes", len(buf))
	}
}

func TestEntryRoundTrip(t *testing.T) {
	entries := []Entry{
		{Key: "live", Value: []byte("payload"), Stamp: core.Seed().Update()},
		{Key: "empty", Value: []byte{}, Stamp: core.Seed().Update()},
		{Key: "gone", Deleted: true, Stamp: core.Seed().Update().Update()},
	}
	var buf []byte
	for _, e := range entries {
		buf = AppendEntry(buf, e)
	}
	for _, want := range entries {
		got, used, err := DecodeEntry(buf)
		if err != nil {
			t.Fatalf("DecodeEntry(%q): %v", want.Key, err)
		}
		buf = buf[used:]
		if got.Key != want.Key || got.Deleted != want.Deleted ||
			!bytes.Equal(got.Value, want.Value) || !got.Stamp.Equal(want.Stamp) {
			t.Errorf("entry %q: got %+v, want %+v", want.Key, got, want)
		}
		if got.Deleted && got.Value != nil {
			t.Errorf("tombstone %q carries a value", got.Key)
		}
	}
}

func TestEntrySmallerThanJSONStamp(t *testing.T) {
	// The binary entry must beat the JSON snapshot's entry shape (key +
	// base64 value + text stamp in a JSON object).
	s := core.Seed().Update()
	for i := 0; i < 6; i++ {
		half, _ := s.Fork()
		s = half.Update()
	}
	e := AppendEntry(nil, Entry{Key: "some/key", Value: []byte("v"), Stamp: s})
	jsonish := len(`{"key":"some/key","value":"dg==","stamp":""}`) + len(s.String())
	if len(e) >= jsonish {
		t.Errorf("binary entry %dB, JSON-ish %dB", len(e), jsonish)
	}
}

func TestDecodeTruncated(t *testing.T) {
	full := AppendEntry(nil, Entry{Key: "k", Value: []byte("vvv"), Stamp: core.Seed().Update()})
	for n := 0; n < len(full); n++ {
		if _, _, err := DecodeEntry(full[:n]); err == nil {
			t.Errorf("truncation at %d accepted", n)
		}
	}
	fullD := AppendDigest(nil, Digest{Key: "k", Stamp: core.Seed().Update()})
	for n := 0; n < len(fullD); n++ {
		if _, _, err := DecodeDigest(fullD[:n]); err == nil {
			t.Errorf("digest truncation at %d accepted", n)
		}
	}
}

func TestDecodeBadFlags(t *testing.T) {
	buf := AppendEntry(nil, Entry{Key: "k", Value: []byte("v"), Stamp: core.Seed()})
	buf[2] = 0x40 // flags byte of a 1-byte key
	if _, _, err := DecodeEntry(buf); err == nil {
		t.Error("unknown flags accepted")
	}
}
