package gpusim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"skewjoin/internal/outbuf"
	"skewjoin/internal/relation"
)

// stressKernel exercises every cost-accounting method plus every output
// path, with per-block work that varies hard with the block index (a
// synthetic skew profile): the worst case for any execution-order
// dependence to hide in.
func stressKernel(seed int64) func(b *Block) {
	return func(b *Block) {
		rng := rand.New(rand.NewSource(seed + int64(b.Idx)))
		work := 1 + b.Idx%17
		if b.Idx%13 == 0 {
			work *= 50 // a few giant blocks
		}
		b.GlobalCoalesced(work * 64)
		b.GlobalRandom(work)
		b.GlobalDependent(work / 2)
		b.Shared(3 * work)
		b.Compute(work)
		b.Atomic(work / 3)
		b.Barrier(1 + work/8)
		b.UniformWork(work, 2)
		visits := []int{work % 5, work % 3, work % 7}
		b.WarpLoop(visits, 4)

		for i := 0; i < work; i++ {
			b.Out.Push(relation.Key(rng.Uint32()), relation.Payload(rng.Uint32()), relation.Payload(rng.Uint32()))
		}
		run := make([]relation.Payload, 1+work%4)
		for i := range run {
			run[i] = relation.Payload(rng.Uint32())
		}
		b.Out.PushRun(relation.Key(b.Idx), run, 7)
		b.Out.PushRunS(relation.Key(b.Idx), 9, run)
		b.Out.Push(relation.Key(work), 1, 2)
		b.Out.Push(relation.Key(work+1), 3, 4)
	}
}

// launchSweep runs a few launches of different shapes on a device with
// the given host worker count. With flush set it records every flush
// batch per SM and returns the flush streams; without it the SM rings
// have no consumer and the launches may run on the worker pool.
func launchSweep(cfg Config, workers int, flush bool, seed int64) (*Device, [][][]outbuf.Result) {
	dev := NewDevice(cfg)
	dev.SetWorkers(workers)
	streams := make([][][]outbuf.Result, cfg.NumSMs)
	if flush {
		dev.SetFlush(func(sm int) outbuf.FlushFunc {
			return func(batch []outbuf.Result) {
				cp := make([]outbuf.Result, len(batch))
				copy(cp, batch)
				streams[sm] = append(streams[sm], cp)
			}
		})
	}
	for i, blocks := range []int{1, 3, 64, 257} {
		dev.Launch("phase", fmt.Sprintf("stress-%d", blocks), blocks, stressKernel(seed+int64(i)))
	}
	dev.Serialize("tail", "stress-serialize", 12345)
	dev.FlushOutputs()
	return dev, streams
}

// TestLaunchWorkersBitIdentical is the worker-pool invariant: for every
// host worker count, a device must reproduce the one-worker device bit
// for bit — launch records (incl. float makespans), stats, total elapsed
// time and output summary — and, with a flush consumer installed, the
// exact flush batch streams of every SM ring.
func TestLaunchWorkersBitIdentical(t *testing.T) {
	base := Config{NumSMs: 8, SharedMemBytes: 4 << 10}
	for _, flush := range []bool{false, true} {
		serialDev, serialStreams := launchSweep(base, 1, flush, 99)
		for _, workers := range []int{2, 4, 16} {
			dev, streams := launchSweep(base, workers, flush, 99)
			name := fmt.Sprintf("flush=%v/workers=%d", flush, workers)
			if !reflect.DeepEqual(dev.Records(), serialDev.Records()) {
				t.Fatalf("%s: launch records differ\npool:   %+v\nserial: %+v",
					name, dev.Records(), serialDev.Records())
			}
			if dev.Stats() != serialDev.Stats() {
				t.Fatalf("%s: stats differ\npool:   %+v\nserial: %+v",
					name, dev.Stats(), serialDev.Stats())
			}
			if dev.Elapsed() != serialDev.Elapsed() {
				t.Fatalf("%s: elapsed %v != serial %v", name, dev.Elapsed(), serialDev.Elapsed())
			}
			if dev.OutputSummary() != serialDev.OutputSummary() {
				t.Fatalf("%s: output summary %+v != serial %+v",
					name, dev.OutputSummary(), serialDev.OutputSummary())
			}
			if !reflect.DeepEqual(streams, serialStreams) {
				t.Fatalf("%s: flush batch streams differ from serial", name)
			}
		}
	}
}

// TestHostWorkers pins the pool-size resolution: one worker or fewer, or
// a launch of at most one block, means serial, and the pool never exceeds
// the block count.
func TestHostWorkers(t *testing.T) {
	cases := []struct{ workers, blocks, want int }{
		{0, 100, 0},
		{-3, 100, 0},
		{1, 100, 0},
		{4, 100, 4},
		{8, 3, 3},
		{4, 1, 0},
		{4, 0, 0},
	}
	for _, c := range cases {
		if got := hostWorkers(c.workers, c.blocks); got != c.want {
			t.Errorf("hostWorkers(%d, %d) = %d, want %d", c.workers, c.blocks, got, c.want)
		}
	}
}

// TestLaunchChunk pins the queue-claim granularity bounds.
func TestLaunchChunk(t *testing.T) {
	if got := launchChunk(10, 4); got != 1 {
		t.Errorf("small launch chunk = %d, want 1", got)
	}
	if got := launchChunk(1<<20, 4); got != 256 {
		t.Errorf("huge launch chunk = %d, want cap 256", got)
	}
	if got := launchChunk(4096, 4); got != 32 {
		t.Errorf("mid launch chunk = %d, want 32", got)
	}
}

// TestHostParallelEmptyLaunch: a zero-block launch must not spin up the
// pool and must behave exactly like serial.
func TestHostParallelEmptyLaunch(t *testing.T) {
	dev := NewDevice(Config{NumSMs: 4})
	dev.SetWorkers(4)
	dur := dev.Launch("p", "empty", 0, func(b *Block) { t.Error("kernel ran for 0 blocks") })
	if dur <= 0 {
		t.Errorf("empty launch duration %v, want launch overhead > 0", dur)
	}
}
