package versionstamp_test

import (
	"encoding/hex"
	"errors"
	"strings"
	"testing"

	"versionstamp"
)

// TestQuickstart exercises the package documentation's quick-start flow on
// the public API only.
func TestQuickstart(t *testing.T) {
	a := versionstamp.Seed()
	a, b := a.Fork()
	a = a.Update()
	if got := versionstamp.Compare(a, b); got != versionstamp.After {
		t.Fatalf("Compare = %v, want after", got)
	}
	if got := versionstamp.Compare(b, a); got != versionstamp.Before {
		t.Fatalf("Compare = %v, want before", got)
	}
	merged, err := versionstamp.Join(a, b)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if merged.String() != "[ε|ε]" {
		t.Fatalf("merged = %v, want [ε|ε]", merged)
	}
}

func TestPublicSync(t *testing.T) {
	a, b := versionstamp.Seed().Fork()
	a = a.Update()
	sa, sb, err := versionstamp.Sync(a, b)
	if err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if versionstamp.Compare(sa, sb) != versionstamp.Equal {
		t.Error("synced replicas must be equal")
	}
}

func TestPublicParseRoundTrip(t *testing.T) {
	s := versionstamp.MustParse("[1|0+1]")
	back, err := versionstamp.Parse(s.String())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !back.Equal(s) {
		t.Fatalf("round trip %v -> %v", s, back)
	}
	if _, err := versionstamp.Parse("[broken"); err == nil {
		t.Error("Parse must reject garbage")
	}
}

func TestPublicBinaryDecode(t *testing.T) {
	s := versionstamp.MustParse("[1|0+1]")
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, used, err := versionstamp.Decode(data)
	if err != nil || used != len(data) {
		t.Fatalf("Decode = %v, %d, %v", back, used, err)
	}
	if !back.Equal(s) {
		t.Fatal("binary round trip changed the stamp")
	}
}

// TestPublicBinaryBytesPinned pins MarshalBinary's output: the bytes the
// WAL, snapshots and sync wire store. A flat string-list blob (format byte
// 0x01) is refused with an error that names the byte.
func TestPublicBinaryBytesPinned(t *testing.T) {
	for text, want := range map[string]string{
		"[ε|ε]":                     "0202c002c0",
		"[1|0+1]":                   "02059806bc",
		"[ε|000+001+01+10+110+111]": "0202c016b6fbbc",
	} {
		data, err := versionstamp.MustParse(text).MarshalBinary()
		if err != nil || hex.EncodeToString(data) != want {
			t.Errorf("MarshalBinary(%s) = %x, %v; want %s", text, data, err, want)
		}
	}
	flat, _ := hex.DecodeString("010101800201000180") // [1|0+1], flat
	if _, _, err := versionstamp.Decode(flat); err == nil || !strings.Contains(err.Error(), "0x01") {
		t.Errorf("Decode(flat [1|0+1]) = %v, want an error naming format byte 0x01", err)
	}
}

func TestPublicJoinError(t *testing.T) {
	s := versionstamp.Seed()
	_, err := versionstamp.Join(s, s)
	if !errors.Is(err, versionstamp.ErrOverlappingIDs) {
		t.Fatalf("Join(s,s) = %v, want ErrOverlappingIDs", err)
	}
}

func TestPublicNames(t *testing.T) {
	u, err := versionstamp.ParseName("1")
	if err != nil {
		t.Fatal(err)
	}
	i, err := versionstamp.ParseName("0+1")
	if err != nil {
		t.Fatal(err)
	}
	s, err := versionstamp.NewStamp(u, i)
	if err != nil {
		t.Fatalf("NewStamp: %v", err)
	}
	if s.String() != "[1|0+1]" {
		t.Errorf("stamp = %v", s)
	}
	// Invariant-violating construction fails.
	bad, _ := versionstamp.ParseName("0")
	if _, err := versionstamp.NewStamp(u, bad); err == nil {
		t.Error("NewStamp must validate u ⊑ i")
	}
}

func TestPublicCheckFrontier(t *testing.T) {
	a, b := versionstamp.Seed().Fork()
	if err := versionstamp.CheckFrontier([]versionstamp.Stamp{a, b}); err != nil {
		t.Errorf("valid frontier rejected: %v", err)
	}
	if err := versionstamp.CheckFrontier([]versionstamp.Stamp{a, a}); err == nil {
		t.Error("duplicated stamp frontier must fail I2")
	}
}

// TestPartitionedReplicationStory documents the paper's headline scenario
// end to end on the public API: replicas created and reconciled with zero
// coordination.
func TestPartitionedReplicationStory(t *testing.T) {
	// A document lives on a desktop.
	desktop := versionstamp.Seed()
	// Partition: a laptop clones it in an airplane (no network).
	desktop, laptop := desktop.Fork()
	// Deeper partition: the laptop clones to a phone mid-flight.
	laptop, phone := laptop.Fork()
	// Everyone edits independently.
	desktop = desktop.Update()
	phone = phone.Update()
	if err := versionstamp.CheckFrontier([]versionstamp.Stamp{desktop, laptop, phone}); err != nil {
		t.Fatalf("frontier: %v", err)
	}
	// Landing: phone and laptop sync; laptop now dominates the old laptop
	// state and conflicts with desktop.
	phone, laptop, err := versionstamp.Sync(phone, laptop)
	if err != nil {
		t.Fatal(err)
	}
	if versionstamp.Compare(laptop, desktop) != versionstamp.Concurrent {
		t.Error("laptop vs desktop should conflict")
	}
	// Reconcile laptop and desktop; then retire the phone into the laptop.
	laptop, desktop, err = versionstamp.Sync(laptop, desktop)
	if err != nil {
		t.Fatal(err)
	}
	if versionstamp.Compare(laptop, desktop) != versionstamp.Equal {
		t.Error("after reconciliation laptop and desktop must be equal")
	}
	survivor, err := versionstamp.Join(laptop, phone)
	if err != nil {
		t.Fatal(err)
	}
	// Two replicas remain: survivor and desktop.
	if err := versionstamp.CheckFrontier([]versionstamp.Stamp{survivor, desktop}); err != nil {
		t.Fatalf("final frontier: %v", err)
	}
}
