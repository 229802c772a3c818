package outbuf

import (
	"math/rand"
	"testing"

	"skewjoin/internal/relation"
)

// applyOps drives the same random operation sequence against any Writer.
func applyOps(w Writer, rng *rand.Rand, nOps int) {
	for i := 0; i < nOps; i++ {
		switch rng.Intn(4) {
		case 0:
			w.Push(relation.Key(rng.Uint32()), relation.Payload(rng.Uint32()), relation.Payload(rng.Uint32()))
		case 1:
			run := make([]relation.Payload, rng.Intn(9))
			for j := range run {
				run[j] = relation.Payload(rng.Uint32())
			}
			w.PushRun(relation.Key(rng.Uint32()), run, relation.Payload(rng.Uint32()))
		case 2:
			run := make([]relation.Payload, rng.Intn(9))
			for j := range run {
				run[j] = relation.Payload(rng.Uint32())
			}
			w.PushRunS(relation.Key(rng.Uint32()), relation.Payload(rng.Uint32()), run)
		default:
			batch := make([]Result, rng.Intn(7))
			for j := range batch {
				batch[j] = Result{
					Key:      relation.Key(rng.Uint32()),
					PayloadR: relation.Payload(rng.Uint32()),
					PayloadS: relation.Payload(rng.Uint32()),
				}
			}
			w.PushBatch(batch)
		}
	}
}

// TestTallyMatchesBuffer drives an identical random operation stream into
// a Buffer and into a Tally added to a second, fresh Buffer: count and
// checksum must agree. This is the invariant behind the simulator's
// worker pool: a block that tallies its output is indistinguishable, by
// summary, from the block having written to its SM's buffer itself.
func TestTallyMatchesBuffer(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		direct := New(8)
		applyOps(direct, rand.New(rand.NewSource(seed)), 200)
		var tally Tally
		applyOps(&tally, rand.New(rand.NewSource(seed)), 200)
		if tally.Count() != direct.Count() {
			t.Fatalf("seed %d: tally count %d, direct count %d", seed, tally.Count(), direct.Count())
		}
		added := New(8)
		added.Push(1, 2, 3) // AddTo adds to, not overwrites, the destination
		tally.AddTo(added)
		direct.Push(1, 2, 3)
		if added.Count() != direct.Count() || added.Checksum() != direct.Checksum() {
			t.Fatalf("seed %d: tallied (%d, %d) != direct (%d, %d)",
				seed, added.Count(), added.Checksum(), direct.Count(), direct.Checksum())
		}
	}
}

// TestTallyEmptyRunsSkipped mirrors Buffer behaviour: zero-length runs
// and batches count nothing.
func TestTallyEmptyRunsSkipped(t *testing.T) {
	var tally Tally
	tally.PushRun(1, nil, 2)
	tally.PushRunS(3, 4, nil)
	tally.PushBatch(nil)
	if tally.Count() != 0 || tally.checksum != 0 {
		t.Fatalf("empty ops counted: count %d, checksum %d", tally.Count(), tally.checksum)
	}
}
