package transput

import "asymstream/internal/uid"

// Dynamic stream redirection — §8: "Redirection of input and output
// can be provided very naturally in a system where each entity is
// referred to by means of a unique identifier.  Special file or stream
// descriptors are not needed."
//
// Because an InPort's source is nothing but a (UID, channel) pair,
// retargeting a *live* stream is a local operation: abort the old
// source's channel (releasing any producer parked on a full buffer),
// take in every batch the helpers still queue, in turn, until the last
// one leaves, forget any stale end-of-stream state, and pull from the
// new pair, whose first exchange sets the turn afresh.  Items already
// received are retained — redirection never loses data that has
// arrived, unless the old stream failed with a gap before it.  The
// paper contrasts this with Unix, "where the shell uses different syntax
// and a different implementation" for file vs program redirection; here
// both are the same two words.
//
// Redirect must not be called concurrently with Next: an InPort has a
// single logical consumer (the paper's model too), and it is that
// consumer who redirects itself between reads.

// Redirect retargets the port at a new source/channel.  If the old
// stream had already ended, redirection simply continues with the new
// one (sequential concatenation); if it was still live, the old
// channel is aborted with msg.  A cancelled port cannot be redirected.
func (p *InPort) Redirect(source uid.UID, channel ChannelID, msg string) error {
	p.mu.Lock()
	if p.cancelled {
		p.mu.Unlock()
		return ErrClosed
	}
	live := !p.done
	ahead := p.detachLocked()
	p.mu.Unlock()

	// Release anything parked at the old source (our own in-flight
	// read-ahead, or the producer blocked on a full buffer).  Skip the
	// abort when the old stream already ended: there is nothing to
	// release and the control invocation would distort the counts.
	if live {
		if msg == "" {
			msg = "redirected"
		}
		_ = p.abort(msg)
	}

	// Salvage data the helpers had fetched before the abort reached the
	// old source — arrived data is kept, per the contract.  The helpers
	// queue it in stream order, after stop too, until the last one leaves;
	// the abort's own answers are errors that carry nothing.  A batch
	// beyond a gap was released by the failure that made the gap.
	var arrived []pulled
	if ahead != nil {
		for res := range ahead {
			if res.err == nil {
				arrived = append(arrived, res)
			}
		}
	}
	p.helpers.Wait()

	p.mu.Lock()
	defer p.mu.Unlock()
	for _, res := range arrived {
		p.absorbLocked(res) // the absorb that takes a live stream
	}
	p.retarget(source, channel)
	p.req.Channel = channel // the reused request must follow the retarget
	p.done = false
	return nil
}

// Redirect retargets a Pusher at a new sink/channel.  Everything written
// so far goes to the OLD target first (those items were written before
// the redirection): the partial batch is flushed and, on a windowed
// pusher, the send window drained.  The old channel is left open — in
// the write-only discipline a sink must expect its writers to come and
// go; End is only sent by Close.  The new stream numbers its items from
// offset 0 under a fresh Writer UID.  A closed pusher cannot be
// redirected, nor one whose stream has failed.
func (w *Pusher) Redirect(target uid.UID, channel ChannelID) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	_ = w.flushLocked(false, w.size()) // a failure here is the stream's: the drain reports it
	if err := w.drainLocked(); err != nil {
		return err
	}
	w.retarget(target, channel)
	w.req.Channel = channel // the reused request must follow the retarget
	if w.window > 1 {
		w.writer, w.base = w.k.NewUID(), 0
	}
	return nil
}
