package outbuf

import "skewjoin/internal/relation"

// Writer is the result-emission interface shared by the overwriting ring
// Buffer and the summary-only Tally. GPU kernels write through it so that
// the simulator can swap the block's output destination: a block run on
// the calling goroutine writes straight into its SM's shared Buffer; a
// block run on the host worker pool writes into a private Tally that is
// later added to the shared Buffer.
type Writer interface {
	Push(k relation.Key, pr, ps relation.Payload)
	PushRun(k relation.Key, rps []relation.Payload, ps relation.Payload)
	PushRunS(k relation.Key, pr relation.Payload, sps []relation.Payload)
	Count() uint64
}

var (
	_ Writer = (*Buffer)(nil)
	_ Writer = (*Tally)(nil)
)

// Tally is a Writer that keeps only the count and linear checksum of the
// results pushed to it — exactly the state of a Buffer that survives when
// no flush consumer is installed (the ring overwrites and Flush is a
// no-op). It retains no records, so a skewed block's output stages in
// O(1) memory.
type Tally struct {
	count    uint64
	checksum uint64
}

// Push counts one result.
func (t *Tally) Push(k relation.Key, pr, ps relation.Payload) {
	t.count++
	t.checksum += coefKey*uint64(k) + coefPayloadR*uint64(pr) + coefPayloadS*uint64(ps)
}

// PushRun counts a run of results matching one S tuple (see
// Buffer.PushRun).
func (t *Tally) PushRun(k relation.Key, rps []relation.Payload, ps relation.Payload) {
	var prSum uint64
	for _, pr := range rps {
		prSum += uint64(pr)
	}
	n := uint64(len(rps))
	t.count += n
	t.checksum += coefPayloadR*prSum + n*(coefKey*uint64(k)+coefPayloadS*uint64(ps))
}

// PushRunS counts a run of results matching one R tuple (see
// Buffer.PushRunS).
func (t *Tally) PushRunS(k relation.Key, pr relation.Payload, sps []relation.Payload) {
	var psSum uint64
	for _, ps := range sps {
		psSum += uint64(ps)
	}
	n := uint64(len(sps))
	t.count += n
	t.checksum += coefPayloadS*psSum + n*(coefKey*uint64(k)+coefPayloadR*uint64(pr))
}

// Count returns the number of results counted so far.
func (t *Tally) Count() uint64 { return t.count }

// AddTo adds the tally's count and checksum to dst, leaving dst's ring
// untouched. Only meaningful when dst has no flush consumer: with one,
// the consumer would never see the tallied records.
func (t *Tally) AddTo(dst *Buffer) {
	dst.count += t.count
	dst.checksum += t.checksum
}
