package cluster

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cluster/faults"
)

// Packet is one simulated wire message: a packed halo payload plus
// the integrity metadata the receiver validates (the healthy
// transport ships the payload alone). A tombstone announces the sender crashed, letting
// receivers fail fast instead of waiting out their deadline.
type Packet struct {
	Seq  int64
	Data []float64
	CRC  uint64
	Tomb bool
}

// Checksum is FNV-1a over the float64 bit patterns; it is what lets a
// receiver reject a corrupted payload and wait for the retransmit.
func Checksum(data []float64) uint64 {
	h := uint64(1469598103934665603)
	for _, v := range data {
		b := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			h ^= (b >> s) & 0xFF
			h *= 1099511628211
		}
	}
	return h
}

// corruptCopy returns a copy of data with one bit flipped, keeping
// the original intact for the retransmit.
func corruptCopy(data []float64) []float64 {
	bad := append([]float64(nil), data...)
	if len(bad) > 0 {
		bad[0] = math.Float64frombits(math.Float64bits(bad[0]) ^ 1<<17)
	}
	return bad
}

// Transport is the retrying checksummed point-to-point message layer:
// the pairing of a fault injector (verdicts per delivery attempt) with
// a backoff/deadline policy. The one exchange step (Cluster.TryMul)
// moves its payloads through this Send/Recv pair whenever an injector
// is armed, so every consumer of a Cluster detects (and survives) the
// same drop/corrupt/delay/dup/crash menu.
//
// The zero-value Retry must be defaulted (Backoff.WithDefaults) before
// use; cluster.New does so.
type Transport struct {
	Inj   *faults.Injector
	Retry Backoff
}

// ChanCap is the channel capacity that keeps senders from ever
// blocking: one packet per delivery attempt (a duplicate verdict ships
// two) plus a tombstone.
func (t Transport) ChanCap() int { return 2*t.Retry.MaxAttempts + 2 }

// Send delivers one message, consulting the injector per attempt:
// drops and corruptions are retried after an exponential backoff (the
// sleep stands in for the ack timeout a real transport would pay),
// delays sleep before delivering, duplicates deliver twice. It gives
// up — returning a *faults.Error — only after MaxAttempts consecutive
// sabotaged attempts.
func (t Transport) Send(ch chan<- Packet, src, dst int, seq int64, data []float64) error {
	good := Packet{Seq: seq, Data: data, CRC: Checksum(data)}
	for attempt := 0; attempt < t.Retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			haloRetries.Inc()
			time.Sleep(t.Retry.Wait(seq, attempt))
		}
		v, d := t.Inj.Message(src, dst, seq, attempt)
		switch v {
		case faults.VDrop:
			continue // lost on the wire; retransmit after backoff
		case faults.VCorrupt:
			ch <- Packet{Seq: seq, Data: corruptCopy(data), CRC: good.CRC}
			continue // receiver rejects the checksum; retransmit
		case faults.VDelay:
			time.Sleep(d)
			ch <- good
			return nil
		case faults.VDuplicate:
			ch <- good
			ch <- good
			return nil
		default:
			ch <- good
			return nil
		}
	}
	haloLost.Inc()
	return &faults.Error{
		Kind: faults.Drop, Node: src, Src: src, Dst: dst, Seq: seq,
		Msg: fmt.Sprintf("message %d->%d (seq %d) lost after %d attempts", src, dst, seq, t.Retry.MaxAttempts),
	}
}

// SendTomb posts a crash tombstone so peers blocked in Recv fail fast
// instead of waiting out their deadline.
func (t Transport) SendTomb(ch chan<- Packet, seq int64) {
	ch <- Packet{Seq: seq, Tomb: true}
}

// Recv blocks for one valid message on ch: it discards packets with a
// bad checksum or wrong length (counting them as detected corruption)
// and keeps waiting for the retransmit. On a tombstone it reports the
// peer's crash; past the deadline it reports a timeout. After
// accepting, buffered same-seq duplicates are drained and counted.
func (t Transport) Recv(ch <-chan Packet, node, src int, seq int64, want int) ([]float64, error) {
	timer := time.NewTimer(t.Retry.Deadline)
	defer timer.Stop()
	for {
		select {
		case p := <-ch:
			if p.Tomb {
				return nil, &faults.Error{
					Kind: faults.Crash, Node: src, Src: src, Dst: node, Seq: seq,
					Msg: fmt.Sprintf("node %d crashed before completing multiply %d", src, seq),
				}
			}
			if p.Seq != seq || len(p.Data) != want || Checksum(p.Data) != p.CRC {
				haloCorruptRejected.Inc()
				continue // damaged or stale; the sender retransmits
			}
			// Accepted. Drain any buffered duplicate of this message.
			for {
				select {
				case q := <-ch:
					if !q.Tomb && q.Seq == seq {
						haloDupDiscarded.Inc()
					}
				default:
					return p.Data, nil
				}
			}
		case <-timer.C:
			haloTimeouts.Inc()
			return nil, &faults.Error{
				Kind: faults.Timeout, Node: node, Src: src, Dst: node, Seq: seq,
				Msg: fmt.Sprintf("node %d: halo receive from node %d (seq %d) timed out after %v", node, src, seq, t.Retry.Deadline),
			}
		}
	}
}
