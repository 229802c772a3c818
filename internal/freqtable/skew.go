package freqtable

import (
	"skewjoin/internal/hashfn"
	"skewjoin/internal/relation"
)

// The paper's example detection parameters (§IV-A): a 1% sample of R,
// and a key is skewed once it appears at least twice in the sample.
const (
	DefaultSampleRate    = 0.01
	DefaultSkewThreshold = 2
)

// DetectSkew is CSH's sampling detector (§IV-A step 1): it counts every
// stride-th key of r, stride = 1/sampleRate, and returns the keys whose
// sampled frequency reaches threshold, most frequent first, together
// with the sample size.
func DetectSkew(r relation.Relation, sampleRate float64, threshold uint32) (keys []relation.Key, sampleSize int) {
	stride := int(1 / sampleRate)
	if stride < 1 {
		stride = 1
	}
	counter := New(r.Len()/stride + 1)
	for i := 0; i < r.Len(); i += stride {
		counter.Add(r.Tuples[i].Key)
		sampleSize++
	}
	for _, kc := range counter.AtLeast(threshold) {
		keys = append(keys, kc.Key)
	}
	return keys, sampleSize
}

// CheckupTable is the paper's "skew checkup table" (§IV-A, Figure 2): an
// open-addressing map from skewed key to its dense id, probed once per
// input tuple. Lookups on the hot path are a hash, a masked index and
// (almost always) one comparison.
type CheckupTable struct {
	mask uint32
	keys []relation.Key
	ids  []int32 // -1 = empty slot
}

// NewCheckupTable builds the table from the detected skewed keys, in
// order: the id of keys[i] is i. A duplicated key keeps its first id.
func NewCheckupTable(keys []relation.Key) *CheckupTable {
	cap := hashfn.NextPow2(len(keys) * 2)
	if cap < 8 {
		cap = 8
	}
	t := &CheckupTable{
		mask: uint32(cap - 1),
		keys: make([]relation.Key, cap),
		ids:  make([]int32, cap),
	}
	for i := range t.ids {
		t.ids[i] = -1
	}
	for i, k := range keys {
		j := hashfn.Mix32(uint32(k)) & t.mask
		for t.ids[j] >= 0 {
			if t.keys[j] == k {
				break // duplicate key: keep the first id
			}
			j = (j + 1) & t.mask
		}
		if t.ids[j] < 0 {
			t.keys[j] = k
			t.ids[j] = int32(i)
		}
	}
	return t
}

// Lookup returns the id of k, or -1 if k is not skewed.
func (t *CheckupTable) Lookup(k relation.Key) int32 {
	j := hashfn.Mix32(uint32(k)) & t.mask
	for t.ids[j] >= 0 {
		if t.keys[j] == k {
			return t.ids[j]
		}
		j = (j + 1) & t.mask
	}
	return -1
}

// Size returns the number of distinct skewed keys in the table.
func (t *CheckupTable) Size() int {
	n := 0
	for _, id := range t.ids {
		if id >= 0 {
			n++
		}
	}
	return n
}
