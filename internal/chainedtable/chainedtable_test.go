package chainedtable

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"skewjoin/internal/exec"
	"skewjoin/internal/relation"
)

func randomTuples(n, keyRange int, seed int64) []relation.Tuple {
	rng := rand.New(rand.NewSource(seed))
	ts := make([]relation.Tuple, n)
	for i := range ts {
		ts[i] = relation.Tuple{Key: relation.Key(rng.Intn(keyRange)), Payload: relation.Payload(i)}
	}
	return ts
}

// probeAll collects every matching payload for k.
func probeAll(probe func(relation.Key, func(relation.Payload)) int, k relation.Key) []relation.Payload {
	var out []relation.Payload
	probe(k, func(p relation.Payload) { out = append(out, p) })
	return out
}

// chainedOver builds the linked-chain reference for a tuple set: a
// Concurrent table filled by one thread.
func chainedOver(tuples []relation.Tuple) *Concurrent {
	c := NewConcurrent(tuples)
	for i := range tuples {
		c.Insert(i)
	}
	return c
}

// wantCounts returns the per-key multiplicity of tuples.
func wantCounts(tuples []relation.Tuple) map[relation.Key]int {
	want := make(map[relation.Key]int)
	for _, tp := range tuples {
		want[tp.Key]++
	}
	return want
}

// checkProbes asserts that table answers every key in [0, keyRange) with
// exactly the multiplicity tuples hold.
func checkProbes(t *testing.T, table *CompactTable, tuples []relation.Tuple, keyRange int) {
	t.Helper()
	want := wantCounts(tuples)
	total := 0
	for k := relation.Key(0); k < relation.Key(keyRange); k++ {
		got := 0
		table.Probe(k, func(relation.Payload) { got++ })
		if got != want[k] {
			t.Fatalf("key %d: %d matches, want %d", k, got, want[k])
		}
		total += got
	}
	if total != len(tuples) {
		t.Fatalf("probed %d tuples, want %d", total, len(tuples))
	}
}

func TestProbeFindsAllMatches(t *testing.T) {
	tuples := randomTuples(5000, 200, 1)
	table := Build(tuples)
	want := make(map[relation.Key]map[relation.Payload]bool)
	for _, tp := range tuples {
		if want[tp.Key] == nil {
			want[tp.Key] = make(map[relation.Payload]bool)
		}
		want[tp.Key][tp.Payload] = true
	}
	for k, ps := range want {
		got := probeAll(table.Probe, k)
		if len(got) != len(ps) {
			t.Fatalf("key %d: %d matches, want %d", k, len(got), len(ps))
		}
		for _, p := range got {
			if !ps[p] {
				t.Fatalf("key %d: unexpected payload %d", k, p)
			}
		}
	}
}

func TestProbeAbsentKey(t *testing.T) {
	table := Build(randomTuples(100, 50, 2))
	if got := probeAll(table.Probe, relation.Key(1<<30)); len(got) != 0 {
		t.Errorf("absent key matched %d tuples", len(got))
	}
}

func TestProbeEmptyTable(t *testing.T) {
	table := Build(nil)
	if v := table.Probe(1, func(relation.Payload) { t.Error("match in empty table") }); v != 0 {
		t.Errorf("visited %d entries in empty table", v)
	}
}

// TestVisitsAtLeastMatches also pins the chain-length semantics: a probe
// inspects exactly the entries a linked chain over the same tuples would
// visit for that key.
func TestVisitsAtLeastMatches(t *testing.T) {
	tuples := randomTuples(2000, 20, 3)
	table := Build(tuples)
	chained := chainedOver(tuples)
	for k := relation.Key(0); k < 20; k++ {
		matches := 0
		visits := table.Probe(k, func(relation.Payload) { matches++ })
		if visits < matches {
			t.Fatalf("key %d: %d visits < %d matches", k, visits, matches)
		}
		if cl := chained.Probe(k, func(relation.Payload) {}); cl != visits {
			t.Fatalf("key %d: chain length %d != probe visits %d", k, cl, visits)
		}
	}
}

func TestSkewProducesLongChain(t *testing.T) {
	// All tuples share one key: the bucket must span the whole table — the
	// pathology of §III.
	tuples := make([]relation.Tuple, 1000)
	for i := range tuples {
		tuples[i] = relation.Tuple{Key: 77, Payload: relation.Payload(i)}
	}
	table := Build(tuples)
	if mc := table.MaxChain(); mc != 1000 {
		t.Errorf("MaxChain = %d, want 1000", mc)
	}
	if got := probeAll(table.Probe, 77); len(got) != 1000 {
		t.Errorf("probe found %d of 1000", len(got))
	}
}

func TestUniformKeysShortChains(t *testing.T) {
	// Distinct keys with one bucket per tuple: buckets stay short.
	tuples := make([]relation.Tuple, 4096)
	for i := range tuples {
		tuples[i] = relation.Tuple{Key: relation.Key(i), Payload: relation.Payload(i)}
	}
	table := Build(tuples)
	if mc := table.MaxChain(); mc > 12 {
		t.Errorf("MaxChain = %d for distinct keys", mc)
	}
}

func TestBucketsPowerOfTwo(t *testing.T) {
	// The bucket count is the next power of two >= n, clamped below at 1:
	// tiny partitions (the bulk of high-fanout task counts) must not pay
	// for buckets they cannot fill.
	wantBuckets := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 100: 128, 4096: 4096}
	for _, n := range []int{0, 1, 2, 3, 100, 4096} {
		table := Build(randomTuples(n, 10, 4))
		b := table.Buckets()
		if b&(b-1) != 0 || b < 1 {
			t.Errorf("n=%d: buckets = %d", n, b)
		}
		if b != wantBuckets[n] {
			t.Errorf("n=%d: buckets = %d, want %d", n, b, wantBuckets[n])
		}
		if table.Len() != n {
			t.Errorf("n=%d: Len = %d", n, table.Len())
		}
	}
}

func TestSingleBucketTableProbes(t *testing.T) {
	// A 1-tuple partition gets a single bucket (shift 32 → every key maps
	// to bucket 0); probing must still find the tuple and reject others.
	table := Build([]relation.Tuple{{Key: 42, Payload: 7}})
	if table.Buckets() != 1 {
		t.Fatalf("buckets = %d, want 1", table.Buckets())
	}
	if got := probeAll(table.Probe, 42); len(got) != 1 || got[0] != 7 {
		t.Errorf("probe(42) = %v", got)
	}
	if got := probeAll(table.Probe, 43); len(got) != 0 {
		t.Errorf("probe(43) matched %d tuples", len(got))
	}
}

func TestConcurrentMatchesSequential(t *testing.T) {
	tuples := randomTuples(8000, 300, 5)
	seq := Build(tuples)
	con := NewConcurrent(tuples)
	exec.Parallel(8, func(w int) {
		lo, hi := exec.Segment(len(tuples), 8, w)
		for i := lo; i < hi; i++ {
			con.Insert(i)
		}
	})
	for k := relation.Key(0); k < 300; k++ {
		a := probeAll(seq.Probe, k)
		b := probeAll(con.Probe, k)
		if len(a) != len(b) {
			t.Fatalf("key %d: sequential %d matches, concurrent %d", k, len(a), len(b))
		}
		seen := make(map[relation.Payload]bool, len(a))
		for _, p := range a {
			seen[p] = true
		}
		for _, p := range b {
			if !seen[p] {
				t.Fatalf("key %d: concurrent-only payload %d", k, p)
			}
		}
	}
}

func TestConcurrentSingleThread(t *testing.T) {
	tuples := randomTuples(100, 10, 6)
	con := chainedOver(tuples)
	total := 0
	for k := relation.Key(0); k < 10; k++ {
		total += len(probeAll(con.Probe, k))
	}
	if total != len(tuples) {
		t.Errorf("found %d tuples, want %d", total, len(tuples))
	}
}

func TestQuickTableEqualsMapSemantics(t *testing.T) {
	f := func(keys []uint8, probeKeys []uint8) bool {
		tuples := make([]relation.Tuple, len(keys))
		want := make(map[relation.Key]int)
		for i, k := range keys {
			tuples[i] = relation.Tuple{Key: relation.Key(k), Payload: relation.Payload(i)}
			want[relation.Key(k)]++
		}
		table := Build(tuples)
		for _, pk := range probeKeys {
			k := relation.Key(pk)
			n := 0
			table.Probe(k, func(relation.Payload) { n++ })
			if n != want[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// match is one (S index, R payload) probe result.
type match struct {
	i  int
	pr relation.Payload
}

// probeMatches probes every tuple of s through probe, returning the sorted
// matches and the total visit count.
func probeMatches(probe func(relation.Key, func(relation.Payload)) int, s []relation.Tuple) ([]match, int) {
	var ms []match
	visited := 0
	for i := range s {
		visited += probe(s[i].Key, func(pr relation.Payload) { ms = append(ms, match{i, pr}) })
	}
	sort.Slice(ms, func(a, b int) bool {
		if ms[a].i != ms[b].i {
			return ms[a].i < ms[b].i
		}
		return ms[a].pr < ms[b].pr
	})
	return ms, visited
}

// TestProbeVariantsEquivalent checks the compact table against the linked
// chains of the Concurrent table over uniform, skewed, one-hot and
// empty-side inputs: the identical match multiset and the identical visit
// count, so the compact layout keeps the chained table's probe cost
// semantics (the GPU divergence model and Stats.ProbeVisits depend on it).
func TestProbeVariantsEquivalent(t *testing.T) {
	hot := func(n int) []relation.Tuple {
		ts := make([]relation.Tuple, n)
		for i := range ts {
			ts[i] = relation.Tuple{Key: 7, Payload: relation.Payload(i)}
		}
		return ts
	}
	for _, w := range []struct {
		name string
		r, s []relation.Tuple
	}{
		{"uniform", randomTuples(4000, 1<<20, 10), randomTuples(4000, 1<<20, 11)},
		{"skewed", randomTuples(3000, 40, 12), randomTuples(3000, 40, 13)},
		{"one-hot", hot(500), hot(700)},
		{"empty-s", randomTuples(100, 50, 14), nil},
		{"empty-r", nil, randomTuples(100, 50, 15)},
	} {
		t.Run(w.name, func(t *testing.T) {
			want, wantVisits := probeMatches(chainedOver(w.r).Probe, w.s)
			got, visits := probeMatches(Build(w.r).Probe, w.s)
			if visits != wantVisits {
				t.Errorf("compact visited %d, chained %d", visits, wantVisits)
			}
			if len(got) != len(want) {
				t.Fatalf("compact %d matches, chained %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("match %d: compact %+v, chained %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// FuzzCompactProbe cross-checks the compact table against the linked
// chains of a Concurrent table on arbitrary key distributions. The fuzzer
// chooses the build size, probe size, key range (small ranges force long
// chains) and a seed. On every input both tables must yield the identical
// match multiset and the identical visit count.
func FuzzCompactProbe(f *testing.F) {
	f.Add(uint16(0), uint16(0), uint16(1), int64(1))
	f.Add(uint16(1), uint16(1), uint16(1), int64(2))
	f.Add(uint16(100), uint16(100), uint16(5), int64(3))     // long chains
	f.Add(uint16(1000), uint16(500), uint16(1000), int64(4)) // mostly distinct
	f.Add(uint16(64), uint16(64), uint16(8), int64(5))
	f.Add(uint16(65), uint16(129), uint16(8), int64(6))
	f.Add(uint16(1024), uint16(1024), uint16(1), int64(7)) // one-hot

	f.Fuzz(func(t *testing.T, rn, sn, keyRange uint16, seed int64) {
		// Cap the cross product: a one-hot 1024x1024 input already yields
		// ~1M matches, and the fuzz engine kills workers that dwell
		// seconds on one input.
		if rn > 1024 {
			rn %= 1025
		}
		if sn > 1024 {
			sn %= 1025
		}
		kr := int(keyRange)
		if kr < 1 {
			kr = 1
		}
		rng := rand.New(rand.NewSource(seed))
		mk := func(n int) []relation.Tuple {
			ts := make([]relation.Tuple, n)
			for i := range ts {
				ts[i] = relation.Tuple{Key: relation.Key(rng.Intn(kr)), Payload: relation.Payload(i)}
			}
			return ts
		}
		r, s := mk(int(rn)), mk(int(sn))
		want, wantVisits := probeMatches(chainedOver(r).Probe, s)
		got, visits := probeMatches(Build(r).Probe, s)
		if visits != wantVisits {
			t.Fatalf("compact visited %d, chained %d", visits, wantVisits)
		}
		if len(got) != len(want) {
			t.Fatalf("compact %d matches, chained %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("match %d: compact %+v, chained %+v", i, got[i], want[i])
			}
		}
	})
}

// TestArenaReuse drives a sequence of in-place rebuilds of one table
// (the join worker's scratch reuse) and checks every rebuild reflects only
// its own tuples, while the scratch shrinks and grows around the
// high-water mark.
func TestArenaReuse(t *testing.T) {
	t.Run("compact", func(t *testing.T) {
		table := &CompactTable{}
		for round, n := range []int{1 << 12, 100, 1, 37, 1 << 10, 0, 255} {
			tuples := randomTuples(n, 64, int64(30+round))
			table.Rebuild(tuples)
			if table.Len() != n {
				t.Fatalf("round %d: Len = %d, want %d", round, table.Len(), n)
			}
			checkProbes(t, table, tuples, 64)
		}
	})
}

// TestArenaDetach verifies the split-task contract: a table a worker stops
// rebuilding keeps answering probes correctly while the worker's fresh
// table is rebuilt over new input.
func TestArenaDetach(t *testing.T) {
	t.Run("compact", func(t *testing.T) {
		kept := randomTuples(2000, 50, 40)
		keptTable := Build(kept)
		fresh := &CompactTable{}
		for round := 0; round < 4; round++ {
			fresh.Rebuild(randomTuples(3000, 50, int64(41+round)))
		}
		checkProbes(t, keptTable, kept, 50)
	})
}

// TestArenaSteadyStateAllocFree is the reason rebuilds reuse scratch:
// after the first build grows it, same-size rebuilds allocate nothing.
func TestArenaSteadyStateAllocFree(t *testing.T) {
	t.Run("compact", func(t *testing.T) {
		table := &CompactTable{}
		tuples := randomTuples(1<<12, 200, 50)
		table.Rebuild(tuples) // warm-up: grows scratch
		allocs := testing.AllocsPerRun(20, func() {
			table.Rebuild(tuples)
		})
		if allocs != 0 {
			t.Errorf("steady-state rebuild allocates %.1f per call, want 0", allocs)
		}
	})
}

// TestNilArenaBuilds pins the zero-value contract: a zero CompactTable
// has no scratch and is ready for Rebuild.
func TestNilArenaBuilds(t *testing.T) {
	var table CompactTable
	if table.Len() != 0 {
		t.Errorf("zero table Len = %d", table.Len())
	}
	tuples := randomTuples(500, 30, 60)
	table.Rebuild(tuples)
	if table.Len() != len(tuples) {
		t.Errorf("Len = %d, want %d", table.Len(), len(tuples))
	}
	checkProbes(t, &table, tuples, 30)
}
