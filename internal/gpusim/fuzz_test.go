package gpusim

import (
	"testing"

	"skewjoin/internal/outbuf"
	"skewjoin/internal/relation"
)

// FuzzHostParallelLaunch is the differential fuzzer behind the worker
// pool: arbitrary launch shapes (block counts, cost mixes, output
// patterns, worker counts) must leave a pooled device in exactly the
// one-worker device's state — same LaunchRecord cycles, same Stats, same
// output summary — and, with a flush consumer installed, the same flushed
// output bytes in the same batch order. The corpus seeds cover the
// structural edges (0/1 blocks, more workers than blocks, giant-block
// skew).
func FuzzHostParallelLaunch(f *testing.F) {
	f.Add(uint8(0), uint8(0), int64(1))
	f.Add(uint8(1), uint8(1), int64(2))
	f.Add(uint8(7), uint8(3), int64(3))
	f.Add(uint8(200), uint8(16), int64(4))
	f.Add(uint8(255), uint8(2), int64(5))

	f.Fuzz(func(t *testing.T, nblocks, par uint8, seed int64) {
		blocks := int(nblocks)
		run := func(workers int, flush bool) (*Device, [][]byte) {
			dev := NewDevice(Config{NumSMs: 4, SharedMemBytes: 1 << 10})
			dev.SetWorkers(workers)
			flushed := make([][]byte, 0, 8)
			if flush {
				dev.SetFlush(func(sm int) outbuf.FlushFunc {
					return func(batch []outbuf.Result) {
						bs := make([]byte, 0, len(batch)*12)
						for _, r := range batch {
							bs = append(bs,
								byte(sm),
								byte(r.Key), byte(r.Key>>8), byte(r.Key>>16), byte(r.Key>>24),
								byte(r.PayloadR), byte(r.PayloadR>>8),
								byte(r.PayloadS), byte(r.PayloadS>>8))
						}
						flushed = append(flushed, bs)
					}
				})
			}
			dev.Launch("fuzz", "fuzz-kernel", blocks, func(b *Block) {
				// Derive the block's cost/output mix from seed and index
				// only, so every worker count computes identical work.
				h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(b.Idx)*0xc2b2ae3d27d4eb4f
				work := int(h%97) + 1
				if h%11 == 0 {
					work *= 40
				}
				b.GlobalCoalesced(work * 8)
				b.GlobalRandom(work % 9)
				b.Atomic(work % 5)
				b.Barrier(work % 3)
				b.UniformWork(work, 1.5)
				for i := 0; i < work; i++ {
					b.Out.Push(relation.Key(h>>32)+relation.Key(i), relation.Payload(h), relation.Payload(i))
				}
				if work%2 == 0 {
					b.Out.PushRun(relation.Key(b.Idx), []relation.Payload{1, 2, 3}, relation.Payload(work))
				}
			})
			dev.FlushOutputs()
			return dev, flushed
		}

		workers := int(par%32) + 1
		for _, flush := range []bool{false, true} {
			serial, serialFlushed := run(1, flush)
			pooled, pooledFlushed := run(workers, flush)

			sr, pr := serial.Records(), pooled.Records()
			if len(sr) != len(pr) {
				t.Fatalf("flush=%v: record counts differ: %d vs %d", flush, len(sr), len(pr))
			}
			for i := range sr {
				if sr[i] != pr[i] {
					t.Fatalf("flush=%v: record %d differs:\nserial: %+v\npooled: %+v", flush, i, sr[i], pr[i])
				}
			}
			if serial.Stats() != pooled.Stats() {
				t.Fatalf("flush=%v: stats differ:\nserial: %+v\npooled: %+v", flush, serial.Stats(), pooled.Stats())
			}
			if serial.Elapsed() != pooled.Elapsed() {
				t.Fatalf("flush=%v: elapsed %v vs %v", flush, serial.Elapsed(), pooled.Elapsed())
			}
			if serial.OutputSummary() != pooled.OutputSummary() {
				t.Fatalf("flush=%v: summaries differ: %+v vs %+v", flush, serial.OutputSummary(), pooled.OutputSummary())
			}
			if len(serialFlushed) != len(pooledFlushed) {
				t.Fatalf("flush=%v: flush batch counts differ: %d vs %d", flush, len(serialFlushed), len(pooledFlushed))
			}
			for i := range serialFlushed {
				if string(serialFlushed[i]) != string(pooledFlushed[i]) {
					t.Fatalf("flush=%v: flushed batch %d bytes differ", flush, i)
				}
			}
		}
	})
}
