package storage

import (
	"testing"

	"versionstamp/internal/core"
	"versionstamp/internal/encoding"
)

func rec(key, value string) encoding.Entry {
	return encoding.Entry{Key: key, Value: []byte(value), Stamp: core.Seed().Update()}
}

func replayAll(t *testing.T, be Backend, shard int) (ckpt []byte, recs []encoding.Entry) {
	t.Helper()
	err := be.ReplayShard(shard,
		func(snap []byte) error { ckpt = append([]byte(nil), snap...); return nil },
		func(e encoding.Entry) error { recs = append(recs, e); return nil })
	if err != nil {
		t.Fatalf("ReplayShard(%d): %v", shard, err)
	}
	return ckpt, recs
}

func TestMemoryAppendReplay(t *testing.T) {
	m := NewMemory()
	if err := m.Append(0, rec("a", "1")); err != nil {
		t.Fatal(err)
	}
	if err := m.Append(0, rec("b", "2")); err != nil {
		t.Fatal(err)
	}
	if err := m.Append(3, rec("c", "3")); err != nil {
		t.Fatal(err)
	}
	ckpt, recs := replayAll(t, m, 0)
	if ckpt != nil {
		t.Errorf("unexpected checkpoint %q", ckpt)
	}
	if len(recs) != 2 || recs[0].Key != "a" || recs[1].Key != "b" {
		t.Errorf("shard 0 records = %+v", recs)
	}
	if _, recs := replayAll(t, m, 3); len(recs) != 1 || recs[0].Key != "c" {
		t.Errorf("shard 3 records = %+v", recs)
	}
	if _, recs := replayAll(t, m, 7); len(recs) != 0 {
		t.Errorf("untouched shard has records: %+v", recs)
	}
}

func TestMemoryCheckpointTruncatesLog(t *testing.T) {
	m := NewMemory()
	_ = m.Append(1, rec("a", "1"))
	if err := m.Checkpoint(1, []byte("snapshot")); err != nil {
		t.Fatal(err)
	}
	_ = m.Append(1, rec("b", "2"))
	ckpt, recs := replayAll(t, m, 1)
	if string(ckpt) != "snapshot" {
		t.Errorf("checkpoint = %q", ckpt)
	}
	if len(recs) != 1 || recs[0].Key != "b" {
		t.Errorf("post-checkpoint records = %+v", recs)
	}
}

// TestMemoryFold holds the in-process backend to the wal backend's fold
// contract: no snapshot, no fold; each key's last entry moves from the log
// to the folds; folds may not outgrow the snapshot; Checkpoint drops them.
func TestMemoryFold(t *testing.T) {
	m := NewMemory()
	_ = m.Append(0, rec("a", "1"))
	if ok, err := m.Fold(0); ok || err != nil {
		t.Fatalf("Fold without a snapshot = %v, %v; want false, nil", ok, err)
	}
	if err := m.Checkpoint(0, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	for _, kv := range [][2]string{{"a", "1"}, {"b", "2"}, {"a", "3"}} {
		_ = m.Append(0, rec(kv[0], kv[1]))
	}
	if ok, err := m.Fold(0); !ok || err != nil {
		t.Fatalf("Fold = %v, %v", ok, err)
	}
	_ = m.Append(0, rec("c", "4"))
	if _, recs := replayAll(t, m, 0); len(recs) != 3 ||
		recs[0].Key != "b" || string(recs[1].Value) != "3" || recs[2].Key != "c" {
		t.Fatalf("replay after fold = %+v, want folds b, a=3 then log c", recs)
	}
	for i := 0; i < 8; i++ {
		_ = m.Append(0, rec(string(rune('k'+i)), "0123456789"))
	}
	if ok, err := m.Fold(0); ok || err != nil {
		t.Fatalf("oversized fold = %v, %v; want false, nil", ok, err)
	}
	if err := m.Checkpoint(0, []byte("snapshot")); err != nil {
		t.Fatal(err)
	}
	if ckpt, recs := replayAll(t, m, 0); string(ckpt) != "snapshot" || len(recs) != 0 {
		t.Fatalf("replay after Checkpoint = %q, %+v", ckpt, recs)
	}
}
