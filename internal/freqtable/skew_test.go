package freqtable

import (
	"testing"

	"skewjoin/internal/relation"
)

func TestCheckupTable(t *testing.T) {
	keys := []relation.Key{5, 99, 12345, 0, 7}
	ct := NewCheckupTable(keys)
	if ct.Size() != len(keys) {
		t.Fatalf("size = %d, want %d", ct.Size(), len(keys))
	}
	for i, k := range keys {
		if id := ct.Lookup(k); id != int32(i) {
			t.Errorf("lookup(%d) = %d, want %d", k, id, i)
		}
	}
	for _, absent := range []relation.Key{1, 2, 100, 1 << 30} {
		if ct.Lookup(absent) >= 0 {
			t.Errorf("Lookup(%d) found an absent key", absent)
		}
	}
}

func TestCheckupTableDuplicateKeysKeepFirstID(t *testing.T) {
	ct := NewCheckupTable([]relation.Key{8, 8, 9})
	if id := ct.Lookup(8); id != 0 {
		t.Errorf("lookup(8) = %d, want 0", id)
	}
	if id := ct.Lookup(9); id != 2 {
		t.Errorf("lookup(9) = %d, want 2", id)
	}
}

func TestCheckupTableEmpty(t *testing.T) {
	ct := NewCheckupTable(nil)
	if ct.Lookup(1) >= 0 {
		t.Error("empty table contains key")
	}
	if ct.Size() != 0 {
		t.Errorf("size = %d, want 0", ct.Size())
	}
}

// TestDetectSkewStrideSample pins the detector's sampling rule: every
// stride-th key is counted, and only keys reaching the threshold in the
// sample are reported, most frequent first.
func TestDetectSkewStrideSample(t *testing.T) {
	r := relation.New(1000)
	for i := range r.Tuples {
		k := relation.Key(1000 + i) // distinct: never skewed
		switch {
		case i%100 == 0 && i < 500:
			k = 7 // sampled five times
		case i%100 == 0:
			k = 3 // sampled five times (ties break by key)
		case i%10 == 0:
			k = 9 // never at a sampled position
		}
		r.Tuples[i] = relation.Tuple{Key: k, Payload: relation.Payload(i)}
	}
	keys, sampled := DetectSkew(r, DefaultSampleRate, DefaultSkewThreshold)
	if sampled != 10 {
		t.Fatalf("sample size %d, want 10", sampled)
	}
	if len(keys) != 2 || keys[0] != 3 || keys[1] != 7 {
		t.Fatalf("skewed keys %v, want [3 7]", keys)
	}
	if keys, _ := DetectSkew(relation.Relation{}, DefaultSampleRate, DefaultSkewThreshold); len(keys) != 0 {
		t.Fatalf("empty relation reported skewed keys %v", keys)
	}
}
