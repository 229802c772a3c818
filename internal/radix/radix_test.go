package radix

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"skewjoin/internal/relation"
	"skewjoin/internal/zipf"
)

func randomTuples(n int, seed int64) []relation.Tuple {
	rng := rand.New(rand.NewSource(seed))
	ts := make([]relation.Tuple, n)
	for i := range ts {
		ts[i] = relation.Tuple{Key: relation.Key(rng.Uint32() >> 8), Payload: relation.Payload(i)}
	}
	return ts
}

// sortedCopy canonicalises a tuple multiset for comparison.
func sortedCopy(ts []relation.Tuple) []relation.Tuple {
	c := make([]relation.Tuple, len(ts))
	copy(c, ts)
	sort.Slice(c, func(i, j int) bool {
		if c[i].Key != c[j].Key {
			return c[i].Key < c[j].Key
		}
		return c[i].Payload < c[j].Payload
	})
	return c
}

func TestPartitionIsPermutation(t *testing.T) {
	src := randomTuples(10000, 1)
	for _, cfg := range []Config{
		{Threads: 1, Bits1: 4, Bits2: 0},
		{Threads: 3, Bits1: 4, Bits2: 3},
		{Threads: 8, Bits1: 6, Bits2: 5},
	} {
		p := Partition(src, cfg, nil)
		if p.Total() != len(src) {
			t.Fatalf("cfg %+v: %d tuples out, %d in", cfg, p.Total(), len(src))
		}
		got := sortedCopy(p.Data)
		want := sortedCopy(src)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cfg %+v: partitioning is not a permutation (first diff at %d)", cfg, i)
			}
		}
	}
}

func TestPlacementInvariant(t *testing.T) {
	src := randomTuples(20000, 2)
	for _, cfg := range []Config{
		{Threads: 2, Bits1: 5, Bits2: 0},
		{Threads: 4, Bits1: 5, Bits2: 4},
		{Threads: 1, Bits1: 1, Bits2: 1},
	} {
		p := Partition(src, cfg, nil)
		if bad := VerifyPlacement(p, cfg); bad >= 0 {
			t.Errorf("cfg %+v: tuple %d in wrong partition", cfg, bad)
		}
	}
}

func TestOffsetsAreMonotone(t *testing.T) {
	src := randomTuples(5000, 3)
	cfg := Config{Threads: 3, Bits1: 4, Bits2: 4}
	p := Partition(src, cfg, nil)
	if len(p.Offsets) != cfg.Fanout()+1 {
		t.Fatalf("offsets length %d, want %d", len(p.Offsets), cfg.Fanout()+1)
	}
	for i := 1; i < len(p.Offsets); i++ {
		if p.Offsets[i] < p.Offsets[i-1] {
			t.Fatalf("offsets not monotone at %d", i)
		}
	}
	if p.Offsets[0] != 0 || p.Offsets[len(p.Offsets)-1] != len(src) {
		t.Fatalf("offsets endpoints wrong: %d .. %d", p.Offsets[0], p.Offsets[len(p.Offsets)-1])
	}
}

func TestThreadCountDoesNotChangePartitionContents(t *testing.T) {
	src := randomTuples(8000, 4)
	cfg1 := Config{Threads: 1, Bits1: 5, Bits2: 3}
	cfg8 := Config{Threads: 8, Bits1: 5, Bits2: 3}
	p1 := Partition(src, cfg1, nil)
	p8 := Partition(src, cfg8, nil)
	for part := 0; part < cfg1.Fanout(); part++ {
		a := sortedCopy(p1.Part(part))
		b := sortedCopy(p8.Part(part))
		if len(a) != len(b) {
			t.Fatalf("partition %d: size %d vs %d", part, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("partition %d: content differs at %d", part, i)
			}
		}
	}
}

func TestSameKeySamePartition(t *testing.T) {
	// All tuples of one key must land in one partition — the very property
	// that makes skew unsplittable (§III).
	g := zipf.MustNew(zipf.Config{Theta: 1.0, Universe: 2000, Seed: 5})
	src := g.NewRelation(20000, 1).Tuples
	cfg := Config{Threads: 4, Bits1: 4, Bits2: 2}
	p := Partition(src, cfg, nil)
	where := make(map[relation.Key]int)
	for part := 0; part < cfg.Fanout(); part++ {
		for _, tp := range p.Part(part) {
			if prev, ok := where[tp.Key]; ok && prev != part {
				t.Fatalf("key %d appears in partitions %d and %d", tp.Key, prev, part)
			}
			where[tp.Key] = part
		}
	}
}

func markWhere(src []relation.Tuple, pred func(relation.Tuple) bool) []int32 {
	ids := make([]int32, len(src))
	for i, tp := range src {
		if pred(tp) {
			ids[i] = 7
		} else {
			ids[i] = -1
		}
	}
	return ids
}

func TestDiverterExcludesAndHandles(t *testing.T) {
	src := randomTuples(10000, 6)
	victim := src[1234].Key
	var handled []relation.Tuple
	div := &Diverter{
		IDs: markWhere(src, func(t relation.Tuple) bool { return t.Key == victim }),
		Handle: func(w int, tp relation.Tuple, id int32) {
			if id != 7 {
				t.Errorf("handle got id %d, want 7", id)
			}
			handled = append(handled, tp)
		},
	}
	cfg := Config{Threads: 1, Bits1: 4, Bits2: 2}
	p := Partition(src, cfg, div)
	want := 0
	for _, tp := range src {
		if tp.Key == victim {
			want++
		}
	}
	if len(handled) != want {
		t.Errorf("handled %d diverted tuples, want %d", len(handled), want)
	}
	if p.Total() != len(src)-want {
		t.Errorf("partitioned %d tuples, want %d", p.Total(), len(src)-want)
	}
	for part := 0; part < cfg.Fanout(); part++ {
		for _, tp := range p.Part(part) {
			if tp.Key == victim {
				t.Fatalf("diverted key leaked into partition %d", part)
			}
		}
	}
}

func TestDiverterHandleSeesEachTupleOnce(t *testing.T) {
	src := randomTuples(5000, 7)
	count := make(map[relation.Payload]int)
	div := &Diverter{
		IDs:    markWhere(src, func(t relation.Tuple) bool { return t.Key%3 == 0 }),
		Handle: func(w int, tp relation.Tuple, id int32) { count[tp.Payload]++ },
	}
	Partition(src, Config{Threads: 1, Bits1: 3, Bits2: 3}, div)
	for p, c := range count {
		if c != 1 {
			t.Fatalf("payload %d handled %d times", p, c)
		}
	}
}

func TestEmptyInput(t *testing.T) {
	p := Partition(nil, Config{Threads: 4, Bits1: 4, Bits2: 4}, nil)
	if p.Total() != 0 {
		t.Errorf("empty input produced %d tuples", p.Total())
	}
	if bad := VerifyPlacement(p, Config{Threads: 4, Bits1: 4, Bits2: 4}); bad >= 0 {
		t.Errorf("placement violation %d on empty input", bad)
	}
}

func TestSingleTuple(t *testing.T) {
	src := []relation.Tuple{{Key: 77, Payload: 1}}
	cfg := Config{Threads: 8, Bits1: 6, Bits2: 5}
	p := Partition(src, cfg, nil)
	if p.Total() != 1 {
		t.Fatalf("got %d tuples", p.Total())
	}
	if bad := VerifyPlacement(p, cfg); bad >= 0 {
		t.Fatalf("placement violation")
	}
}

func TestMoreThreadsThanTuples(t *testing.T) {
	src := randomTuples(5, 8)
	p := Partition(src, Config{Threads: 16, Bits1: 3, Bits2: 2}, nil)
	if p.Total() != 5 {
		t.Errorf("got %d tuples, want 5", p.Total())
	}
}

func TestMultiPassMatchesTwoPass(t *testing.T) {
	src := randomTuples(12000, 21)
	two := Partition(src, Config{Threads: 3, Bits1: 4, Bits2: 3}, nil)
	multi := MultiPass(src, 3, []uint32{4, 3}, nil)
	if multi.Fanout() != two.Fanout() {
		t.Fatalf("fanout %d vs %d", multi.Fanout(), two.Fanout())
	}
	for p := 0; p < two.Fanout(); p++ {
		a := sortedCopy(two.Part(p))
		b := sortedCopy(multi.Part(p))
		if len(a) != len(b) {
			t.Fatalf("partition %d: %d vs %d tuples", p, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("partition %d differs at %d", p, i)
			}
		}
	}
}

func TestMultiPassThreePasses(t *testing.T) {
	src := randomTuples(15000, 22)
	p := MultiPass(src, 4, []uint32{3, 3, 2}, nil)
	if p.Fanout() != 1<<8 {
		t.Fatalf("fanout = %d", p.Fanout())
	}
	if p.Total() != len(src) {
		t.Fatalf("total = %d", p.Total())
	}
	// Same key ⇒ same partition, and the multiset is preserved.
	where := make(map[relation.Key]int)
	for part := 0; part < p.Fanout(); part++ {
		for _, tp := range p.Part(part) {
			if prev, ok := where[tp.Key]; ok && prev != part {
				t.Fatalf("key %d split across partitions %d and %d", tp.Key, prev, part)
			}
			where[tp.Key] = part
		}
	}
	got := sortedCopy(p.Data)
	want := sortedCopy(src)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("multiset differs at %d", i)
		}
	}
}

func TestMultiPassSinglePass(t *testing.T) {
	src := randomTuples(5000, 23)
	one := MultiPass(src, 2, []uint32{5}, nil)
	ref := Partition(src, Config{Threads: 2, Bits1: 5, Bits2: 0}, nil)
	if one.Fanout() != ref.Fanout() || one.Total() != ref.Total() {
		t.Fatalf("single-pass mismatch: %d/%d vs %d/%d",
			one.Fanout(), one.Total(), ref.Fanout(), ref.Total())
	}
}

func TestMultiPassNoPassesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for zero passes")
		}
	}()
	MultiPass(nil, 1, nil, nil)
}

func TestQuickPartitionPreservesMultiset(t *testing.T) {
	f := func(keys []uint32, threadsRaw, b1Raw, b2Raw uint8) bool {
		src := make([]relation.Tuple, len(keys))
		for i, k := range keys {
			src[i] = relation.Tuple{Key: relation.Key(k), Payload: relation.Payload(i)}
		}
		cfg := Config{
			Threads: int(threadsRaw%8) + 1,
			Bits1:   uint32(b1Raw%6) + 1,
			Bits2:   uint32(b2Raw % 5),
		}
		p := Partition(src, cfg, nil)
		if p.Total() != len(src) {
			return false
		}
		if VerifyPlacement(p, cfg) >= 0 {
			return false
		}
		got := sortedCopy(p.Data)
		want := sortedCopy(src)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// countDiverted returns how many IDs mark their tuple as diverted.
func countDiverted(ids []int32) int {
	n := 0
	for _, id := range ids {
		if id >= 0 {
			n++
		}
	}
	return n
}

// TestMultiPassWithDiverter drives MultiPass through a diverter: diverted
// tuples must be handed to Handle exactly once and never partitioned, the
// rest must satisfy VerifyPlacement, and nothing may be dropped.
func TestMultiPassWithDiverter(t *testing.T) {
	src := randomTuples(15000, 14)
	for _, tc := range []struct {
		name string
		bits []uint32
	}{
		{"single-pass", []uint32{6}},
		{"two-pass", []uint32{4, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			handled := make(map[relation.Payload]int)
			div := &Diverter{
				IDs:    markWhere(src, func(tp relation.Tuple) bool { return tp.Key%7 == 0 }),
				Handle: func(w int, tp relation.Tuple, id int32) { handled[tp.Payload]++ },
			}
			diverted := countDiverted(div.IDs)
			p := MultiPass(src, 1, tc.bits, div)

			if p.Total() != len(src)-diverted {
				t.Fatalf("partitioned %d tuples, want %d", p.Total(), len(src)-diverted)
			}
			if len(handled) != diverted {
				t.Fatalf("handled %d distinct tuples, want %d", len(handled), diverted)
			}
			for pay, n := range handled {
				if n != 1 {
					t.Fatalf("payload %d handled %d times", pay, n)
				}
			}
			// Placement: MultiPass with bits [b] or [b1, b2] matches the
			// two-pass Config partition index layout exactly.
			cfg := Config{Bits1: tc.bits[0]}
			if len(tc.bits) > 1 {
				cfg.Bits2 = tc.bits[1]
			}
			if bad := VerifyPlacement(p, cfg); bad >= 0 {
				t.Fatalf("placement violation at %d", bad)
			}
			// Nothing dropped and nothing duplicated: partitioned tuples plus
			// handled tuples reassemble the source multiset.
			seen := make(map[relation.Payload]int, len(src))
			for _, tp := range p.Data {
				seen[tp.Payload]++
			}
			for pay := range handled {
				seen[pay]++
			}
			for _, tp := range src {
				seen[tp.Payload]--
			}
			for pay, n := range seen {
				if n != 0 {
					t.Fatalf("payload %d count off by %d", pay, n)
				}
			}
			// Diverted keys must not appear in any partition.
			for _, tp := range p.Data {
				if tp.Key%7 == 0 {
					t.Fatalf("diverted key %d leaked into partitions", tp.Key)
				}
			}
		})
	}
}

// TestMultiPassDiverterDivertsEverything is the degenerate edge: every
// tuple diverted leaves empty partitions but loses nothing.
func TestMultiPassDiverterDivertsEverything(t *testing.T) {
	src := randomTuples(3000, 15)
	var handled int
	div := &Diverter{
		IDs:    markWhere(src, func(relation.Tuple) bool { return true }),
		Handle: func(w int, tp relation.Tuple, id int32) { handled++ },
	}
	p := MultiPass(src, 1, []uint32{4, 3}, div)
	if p.Total() != 0 {
		t.Errorf("partitioned %d tuples, want 0", p.Total())
	}
	if handled != len(src) {
		t.Errorf("handled %d tuples, want %d", handled, len(src))
	}
	if p.Fanout() != 1<<7 {
		t.Errorf("fanout %d, want %d", p.Fanout(), 1<<7)
	}
	if bad := VerifyPlacement(p, Config{Bits1: 4, Bits2: 3}); bad >= 0 {
		t.Errorf("placement violation at %d on empty partitions", bad)
	}
}
