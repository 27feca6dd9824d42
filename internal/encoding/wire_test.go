package encoding

import (
	"bytes"
	"errors"
	"io"
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
		if n := len(AppendDigest(nil, d)); DigestLen(d) != n {
			t.Errorf("DigestLen(%q) = %d, encoding is %d bytes", d.Key, DigestLen(d), n)
		}
		buf = AppendDigest(buf, d)
	}
	for _, want := range digests {
		got, used, err := DecodeDigest(buf, nil)
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
		if n := len(AppendEntry(nil, e)); EntryLen(e) != n {
			t.Errorf("EntryLen(%q) = %d, encoding is %d bytes", e.Key, EntryLen(e), n)
		}
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
		if _, _, err := DecodeDigest(fullD[:n], nil); err == nil {
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

func TestEntryBodyRoundTrip(t *testing.T) {
	s := core.Seed().Update()
	entries := []Entry{
		{Value: []byte("payload"), Stamp: s},
		{Value: []byte{}, Stamp: s},
		{Deleted: true, Stamp: s.Update()},
	}
	var buf []byte
	for i, e := range entries {
		withStamp := i%2 == 0
		if n := len(AppendEntryBody(nil, e, withStamp)); EntryBodyLen(e, withStamp) != n {
			t.Errorf("EntryBodyLen = %d, encoding is %d bytes", EntryBodyLen(e, withStamp), n)
		}
		buf = AppendEntryBody(buf, e, withStamp)
	}
	buf = AppendVanishedBody(buf)
	for i, want := range entries {
		got, withStamp, vanished, used, err := DecodeEntryBody(buf)
		if err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
		buf = buf[used:]
		if vanished || withStamp != (i%2 == 0) || got.Deleted != want.Deleted || !bytes.Equal(got.Value, want.Value) ||
			withStamp && !got.Stamp.Equal(want.Stamp) {
			t.Errorf("body %d: got %+v (stamp %v), want %+v", i, got, withStamp, want)
		}
	}
	if _, _, vanished, used, err := DecodeEntryBody(buf); err != nil || !vanished || used != len(buf) {
		t.Errorf("vanished body: vanished %v, %d of %d bytes, %v", vanished, used, len(buf), err)
	}
}

func TestEntryBodyTruncatedAndBadFlags(t *testing.T) {
	full := AppendEntryBody(nil, Entry{Value: []byte("vvv"), Stamp: core.Seed().Update()}, true)
	for n := 0; n < len(full); n++ {
		if _, _, _, _, err := DecodeEntryBody(full[:n]); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("truncation at %d: %v, want io.ErrUnexpectedEOF", n, err)
		}
	}
	for _, flags := range []byte{0x08, 0x40, bodyFlagVanished | entryFlagDeleted, bodyFlagVanished | bodyFlagStamp} {
		if _, _, _, _, err := DecodeEntryBody([]byte{flags, 0}); err == nil || errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("flags 0x%02x: %v, want a final error", flags, err)
		}
	}
}
