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
